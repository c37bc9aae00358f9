module Distribution = Repro_sharegraph.Distribution
module Bitset = Repro_util.Bitset

type value = Repro_history.Op.value

type metrics = {
  messages_sent : int;
  messages_delivered : int;
  control_bytes : int;
  payload_bytes : int;
  overhead_bytes : int;
  mentioned_at : Bitset.t array;
  applied_writes : int;
}

type t = {
  name : string;
  dist : Distribution.t;
  read : proc:int -> var:int -> value;
  write : proc:int -> var:int -> value -> unit;
  step : unit -> bool;
  quiesce : unit -> unit;
  now : unit -> int;
  schedule : delay:int -> (unit -> unit) -> unit;
  metrics : unit -> metrics;
  blocking_writes : bool;
  blocking_reads : bool;
  set_tracing : bool -> unit;
  msc : unit -> string;
  snapshot : (unit -> string) option;
  restore : (string -> unit) option;
}

let value_bytes = 8

let mentions_outside_clique t ~var =
  let metrics = t.metrics () in
  let holders = Distribution.holders_set t.dist var in
  (* Nodes beyond the process range are infrastructure (e.g. a sequencer);
     they are never in a clique, so any mention there counts as leakage. *)
  Bitset.fold
    (fun p acc ->
      if p < Bitset.capacity holders && Bitset.mem holders p then acc else p :: acc)
    metrics.mentioned_at.(var) []
  |> List.rev

let total_offclique_mentions t =
  let n_vars = Distribution.n_vars t.dist in
  let total = ref 0 in
  for x = 0 to n_vars - 1 do
    total := !total + List.length (mentions_outside_clique t ~var:x)
  done;
  !total
