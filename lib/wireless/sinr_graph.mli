(** Edge-weighted conflict graphs for the physical model.

    Two constructions from the paper:

    - {!prop11_graph}: fixed powers (Proposition 11).  Weights are the
      (1+ε)-corrected affectances, so that a link set satisfies the SINR
      constraints iff it is independent in the weighted graph.  With a
      monotone power scheme the decreasing-length ordering has
      ρ = O(log n) (Lemma 12).

    - {!thm13_graph}: power control (Theorem 13).  Weights are the
      distance-ratio terms scaled by [1/τ], [τ = 1 / (2·3^α·(4β+2))];
      independent sets admit a feasible power assignment computed by
      {!Power_control}.  [weight_scale] overrides [1/τ] for the ablation
      study (the paper's τ is a worst-case constant; the experiments probe
      how far it can be relaxed before power control starts failing). *)

val prop11_graph :
  Link.system -> Sinr.params -> powers:float array -> Sa_graph.Weighted.t

val prop11_epsilon : Link.system -> Sinr.params -> float
(** The ε of Proposition 11:
    [β/2 · min_{ℓ,ℓ'} (d(s,r)^α / d(s',r)^α)] over links [ℓ=(s,r)],
    [ℓ'=(s',r')], [ℓ ≠ ℓ'].  Depends only on the geometry and [α], [β] —
    not on the transmit powers.  On Euclidean metrics the inner
    minimisation is a farthest-sender grid query per receiver. *)

val ordering : Link.system -> Sa_graph.Ordering.t
(** Decreasing link length — backward neighbours of a link are *longer*
    links, matching Lemma 12's premise. *)

val tau : Sinr.params -> float
(** [1 / (2·3^α·(4β+2))]. *)

val thm13_graph :
  ?weight_scale:float -> Link.system -> Sinr.params -> Sa_graph.Weighted.t
(** Directed weights from longer onto shorter links (zero in the other
    direction):
    [w(ℓ,ℓ') = scale·(min(1, d(ℓ)^α/d(s,r')^α) + min(1, d(ℓ)^α/d(s',r)^α)]
    where [ℓ=(s,r)] precedes [ℓ'=(s',r')] in decreasing-length order and
    [scale] defaults to [1/τ].  Dense n×n storage. *)

val sinr_iff_independent :
  Link.system -> Sinr.params -> powers:float array -> int list -> bool * bool
(** [(sinr_feasible, independent)] for a link set — the two sides of the
    Proposition 11 equivalence, for tests. *)
