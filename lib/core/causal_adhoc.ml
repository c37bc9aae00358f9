module Latency = Repro_msgpass.Latency
module Distribution = Repro_sharegraph.Distribution

(* Dependency summary: (writer, var, count) triples meaning "I had applied
   [count] writes of [writer] to [var] when I issued this write". *)
type msg = Update of {
  var : int;
  value : Memory.value;
  writer : int;
  deps : (int * int * int) list;
}

module Codec = Repro_transport.Codec

let codec : msg Codec.t =
  let size (Update { value; deps; _ }) =
    4 + Proto_base.value_size value + 4 + 2 + (12 * List.length deps)
  in
  let emit buf off (Update { var; value; writer; deps }) =
    let off = Codec.put_i32 buf off var in
    let off = Proto_base.emit_value buf off value in
    let off = Codec.put_i32 buf off writer in
    let off = Codec.put_u16 buf off (List.length deps) in
    List.fold_left
      (fun off (k, y, c) ->
        let off = Codec.put_i32 buf off k in
        let off = Codec.put_i32 buf off y in
        Codec.put_i32 buf off c)
      off deps
  in
  let parse buf pos limit =
    let var, pos = Codec.get_i32 buf pos limit in
    let value, pos = Proto_base.parse_value buf pos limit in
    let writer, pos = Codec.get_i32 buf pos limit in
    let count, pos = Codec.get_u16 buf pos limit in
    let rec read_deps acc pos = function
      | 0 -> (List.rev acc, pos)
      | i ->
          let k, pos = Codec.get_i32 buf pos limit in
          let y, pos = Codec.get_i32 buf pos limit in
          let c, pos = Codec.get_i32 buf pos limit in
          read_deps ((k, y, c) :: acc) pos (i - 1)
    in
    let deps, pos = read_deps [] pos count in
    (Update { var; value; writer; deps }, pos)
  in
  { Codec.size; emit; parse }

type state = {
  self : int;
  n : int;
  dist : Distribution.t;
  port : msg Machine.port;
  store : Memory.value array;
  counts : int array array;  (* counts.(k).(y): k's writes to y applied here *)
  mutable pending : msg list;
  shared_vars : int list array;  (* per peer j: X_self ∩ X_j *)
}

let label = function
  | Update { var; value; writer; deps } ->
      Printf.sprintf "upd x%d:=%s w%d deps:%d" var (Machine.value_text value) writer
        (List.length deps)

let init dist ~self port =
  let n = Distribution.n_procs dist in
  let n_vars = Distribution.n_vars dist in
  let shared_with j =
    List.filter
      (fun y -> Distribution.holds dist ~proc:j ~var:y)
      (Distribution.vars_of dist self)
  in
  { self; n; dist; port; store = Array.make n_vars Repro_history.Op.Init;
    counts = Array.make_matrix n n_vars 0; pending = [];
    shared_vars = Array.init n shared_with }

let ready s deps = List.for_all (fun (k, y, c) -> s.counts.(k).(y) >= c) deps

let apply s (Update { var; value; writer; _ }) =
  s.store.(var) <- value;
  s.counts.(writer).(var) <- s.counts.(writer).(var) + 1;
  s.port.Machine.applied ()

let rec drain s =
  let appliable, blocked =
    List.partition (fun (Update { deps; _ }) -> ready s deps) s.pending
  in
  match appliable with
  | [] -> ()
  | _ ->
      s.pending <- blocked;
      List.iter (apply s) appliable;
      drain s

let deliver s ~src:_ m =
  s.pending <- s.pending @ [ m ];
  drain s

let read s ~var = s.store.(var)

let write s ~var value =
  (* Summaries snapshot the writer's state before counting this write. *)
  let counts = s.counts in
  s.store.(var) <- value;
  List.iter
    (fun peer ->
      if peer <> s.self then begin
        let deps =
          List.concat_map
            (fun y ->
              List.filter_map
                (fun k -> if counts.(k).(y) > 0 then Some (k, y, counts.(k).(y)) else None)
                (List.init s.n Fun.id))
            s.shared_vars.(peer)
        in
        let mentions =
          var :: List.map (fun (_, y, _) -> y) deps |> List.sort_uniq compare
        in
        s.port.Machine.send ~dst:peer
          ~control_bytes:(12 * List.length deps)
          ~payload_bytes:Memory.value_bytes ~mentions
          (Update { var; value; writer = s.self; deps })
      end)
    (Distribution.holders s.dist var);
  counts.(s.self).(var) <- counts.(s.self).(var) + 1

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "causal-adhoc"; codec = Some codec; label; extra_nodes = 0;
      blocking_reads = false; blocking_writes = false; checkpoint = None; init;
      read; write; deliver }
