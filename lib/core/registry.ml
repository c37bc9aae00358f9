module Checker = Repro_history.Checker

type spec = {
  name : string;
  guarantees : Checker.criterion;
  requires_full_replication : bool;
  blocking : bool;
  efficient : bool;
  make :
    ?latency:Repro_msgpass.Latency.t ->
    ?transport:Repro_transport.Transport.factory ->
    dist:Repro_sharegraph.Distribution.t ->
    seed:int ->
    unit ->
    Memory.t;
}

let all =
  [
    {
      name = "atomic-primary";
      guarantees = Checker.Sequential;
      requires_full_replication = false;
      blocking = true;
      efficient = true;
      make = (fun ?latency ?transport ~dist ~seed () -> Atomic_primary.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "seq-sequencer";
      guarantees = Checker.Sequential;
      requires_full_replication = false;
      blocking = true;
      efficient = false;
      make = (fun ?latency ?transport ~dist ~seed () -> Seq_sequencer.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "causal-full";
      guarantees = Checker.Causal;
      requires_full_replication = true;
      blocking = false;
      efficient = false;
      make = (fun ?latency ?transport ~dist ~seed () -> Causal_full.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "causal-delta";
      guarantees = Checker.Causal;
      requires_full_replication = true;
      blocking = false;
      efficient = false;
      make = (fun ?latency ?transport ~dist ~seed () -> Causal_delta.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "causal-partial";
      guarantees = Checker.Causal;
      requires_full_replication = false;
      blocking = false;
      efficient = false;
      make = (fun ?latency ?transport ~dist ~seed () -> Causal_partial.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "causal-gossip";
      guarantees = Checker.Causal;
      requires_full_replication = false;
      blocking = false;
      efficient = false;
      (* component-scoped, not clique-scoped: leaks along hoops *)
      make = (fun ?latency ?transport ~dist ~seed () -> Causal_gossip.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "causal-adhoc";
      (* causal only on hoop-free distributions; PRAM in general *)
      guarantees = Checker.Pram;
      requires_full_replication = false;
      blocking = false;
      efficient = true;
      make = (fun ?latency ?transport ~dist ~seed () -> Causal_adhoc.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "pram-partial";
      guarantees = Checker.Pram;
      requires_full_replication = false;
      blocking = false;
      efficient = true;
      make = (fun ?latency ?transport ~dist ~seed () -> Pram_partial.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "pram-reliable";
      guarantees = Checker.Pram;
      requires_full_replication = false;
      blocking = false;
      efficient = true;
      make =
        (fun ?latency ?transport ~dist ~seed () ->
          (* clean links; the lossy plans are exercised by the tests *)
          Pram_reliable.create ?latency ?transport ~dist ~seed ());
    };
    {
      name = "slow-partial";
      guarantees = Checker.Slow;
      requires_full_replication = false;
      blocking = false;
      efficient = true;
      make = (fun ?latency ?transport ~dist ~seed () -> Slow_partial.create ?latency ?transport ~dist ~seed ());
    };
  ]

let find name = List.find_opt (fun spec -> spec.name = name) all

let names = List.map (fun spec -> spec.name) all
