(* Hierarchical tracing spans.

   A span is one timed region (an LP solve, a rho estimation, an engine
   job) with a monotonic start timestamp (Sa_util.Timing.now, origin
   arbitrary), a process-unique id, the id of the enclosing span on the
   same domain (ambient parent, kept in domain-local storage so nesting is
   automatic and exact under Pool.map_array sharding), and a list of
   string key/value attributes.

   Completed spans land in a global ring buffer — recent history only, old
   spans are overwritten — and their duration is also recorded in a
   histogram of the default metrics registry, so aggregate latency
   survives ring eviction. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  dur_s : float;
  domain : int;
  attrs : (string * string) list;
}

let default_capacity = 512

let initial_capacity =
  (* SA_TRACE_CAPACITY overrides the ring size at startup; unparsable or
     non-positive values are ignored (start-up must never fail on an env
     var), use set_capacity for a validating override. *)
  match Sys.getenv_opt "SA_TRACE_CAPACITY" with
  | None -> default_capacity
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some c when c >= 1 -> c
      | Some _ | None -> default_capacity)

let lock = Mutex.create ()
let buf : span option array ref = ref (Array.make initial_capacity None)
let next = ref 0
let enabled = Atomic.make true

let set_enabled b = Atomic.set enabled b

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let capacity () = locked (fun () -> Array.length !buf)

let set_capacity c =
  if c < 1 then invalid_arg "Trace.set_capacity: capacity must be >= 1";
  locked (fun () ->
      buf := Array.make c None;
      next := 0)

let record sp =
  if Atomic.get enabled then
    locked (fun () ->
        let b = !buf in
        b.(!next) <- Some sp;
        next := (!next + 1) mod Array.length b)

let recent () =
  locked (fun () ->
      let b = !buf in
      let cap = Array.length b in
      let out = ref [] in
      for i = 0 to cap - 1 do
        (* starting at [next] visits surviving spans oldest-first *)
        match b.((!next + i) mod cap) with
        | Some sp -> out := sp :: !out
        | None -> ()
      done;
      List.rev !out)

let clear () =
  locked (fun () ->
      Array.fill !buf 0 (Array.length !buf) None;
      next := 0)

(* ------------------------- ambient span context ------------------------- *)

(* The stack of open spans on the current domain.  A freshly spawned domain
   starts empty, so spans recorded from inside Pool.map_array workers
   are roots of their own per-domain track (exactly what the Chrome trace
   exporter renders, one track per domain). *)
type open_span = {
  o_id : int;
  mutable o_attrs : (string * string) list;  (* reversed; reversed back on record *)
}

let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let next_id = Atomic.make 1

let current_span_id () =
  match !(Domain.DLS.get stack_key) with [] -> None | o :: _ -> Some o.o_id

let add_attr key value =
  match !(Domain.DLS.get stack_key) with
  | [] -> ()
  | o :: _ -> o.o_attrs <- (key, value) :: o.o_attrs

let with_span ?hist ?(attrs = []) name f =
  let stack = Domain.DLS.get stack_key in
  let parent = match !stack with [] -> None | o :: _ -> Some o.o_id in
  let id = Atomic.fetch_and_add next_id 1 in
  let o = { o_id = id; o_attrs = List.rev attrs } in
  stack := o :: !stack;
  let start_s = Sa_util.Timing.now () in
  Fun.protect
    ~finally:(fun () ->
      let dur_s = Sa_util.Timing.now () -. start_s in
      (stack := match !stack with _ :: tl -> tl | [] -> []);
      let h =
        match hist with
        | Some h -> h
        | None -> Metrics.histogram (name ^ ".seconds")
      in
      Metrics.observe h dur_s;
      record
        {
          id;
          parent;
          name;
          start_s;
          dur_s;
          domain = (Domain.self () :> int);
          attrs = List.rev o.o_attrs;
        })
    f
