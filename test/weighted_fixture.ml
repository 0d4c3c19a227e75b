(* Dense weighted graphs from directed [(u, v, x)] entries, for tests that
   draw their weights as a list.  An entry below [floor] is left at 0. *)

module Weighted = Sa_graph.Weighted

let of_entries ?(floor = 0.0) n entries =
  let wg = Weighted.create n in
  List.iter (fun (u, v, x) -> if x >= floor then Weighted.set wg u v x) entries;
  wg
