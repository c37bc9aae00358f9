(** Experiment harness: regenerates every quantitative claim of the paper
    as a table (DESIGN.md's per-experiment index).

    The paper itself reports no measurements — it is a theory paper — so
    the "tables and figures" to reproduce are (a) its worked examples
    (Figures 1–9, regenerated as tests and examples), and (b) the {e
    efficiency argument} of §3.3, which these experiments quantify on the
    protocol implementations.  Each function is deterministic in [seed].

    Experiment ids match DESIGN.md: E1 (scaling), R1 (replication sweep),
    T1 (mention audit / Theorem 1), A2 (criterion matrix), E2
    (Bellman-Ford), A1 (ad-hoc ablation), H1 (hoop census), B1 (sequencer
    bottleneck), L1 (reliability cost), C1 (operation cost profile). *)

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val render : table -> string
(** Title, aligned table, and notes, ready to print. *)

val scaling :
  ?sizes:int list -> ?pool:Repro_util.Pool.t -> seed:int -> unit -> table
(** {b E1} — control-information scaling.  For each system size [n]
    (default 4, 8, 16, 24 processes; 2·n variables, 3 replicas each), run
    the same per-process workload on causal-full (full replication),
    causal-partial, pram-partial and slow-partial, and report messages,
    control bytes, control bytes {e per write}, and off-clique mention
    counts.  Reproduces §3.3: causal control information grows with the
    system, PRAM's stays constant. *)

val replication_sweep : ?n:int -> seed:int -> unit -> table
(** {b R1} — replication-factor sweep.  Fixed system size, variables placed
    on 1, 2, 3, 6 or all of the processes: per-write message and
    control-byte costs of causal-partial vs pram-partial.  Shows that the
    causal broadcast cost is independent of clique size while PRAM's
    tracks |C(x)|. *)

val mention_audit : seed:int -> unit -> table
(** {b T1} — Theorem 1 audit.  On the 4-process share-graph cycle, for
    each variable: [C(x)], the x-relevant set predicted by Theorem 1, and
    the processes actually informed about [x] by each protocol. *)

val criterion_matrix : ?pool:Repro_util.Pool.t -> seed:int -> unit -> table
(** {b A2} — protocols × criteria.  Run one workload per protocol and
    check the history under every criterion; cells hold ✓/✗.  The staircase
    shape is the paper's criterion lattice.  Each history's eight-criteria
    sweep shares one {!Repro_history.Relcache}. *)

val scaling_checked :
  ?sizes:int list -> ?pool:Repro_util.Pool.t -> seed:int -> unit -> table
(** {b E1X} — E1's workload at previously infeasible sizes (default n=32
    and n=48, ~380-operation histories), with every produced history
    checked against its protocol's guaranteed criterion by the saturation
    engine.  Catalogue-only: not part of {!all} (whose rendering is pinned
    byte-for-byte by the golden tests). *)

val criterion_matrix_scaled :
  ?pool:Repro_util.Pool.t -> seed:int -> unit -> table
(** {b A2X} — the A2 matrix on long contended histories (6 processes × 20
    operations, 8 runs per protocol).  Catalogue-only, like {!scaling_checked}. *)

val bellman_ford : seed:int -> unit -> table
(** {b E2} — the §6 case study.  Fig. 8 and random networks on every
    compatible protocol: distances correct?, messages, control bytes,
    simulated completion time. *)

val adhoc_ablation : seed:int -> unit -> table
(** {b A1} — the §3.3 "ad-hoc design" boundary.  causal-adhoc on hoop-free
    vs hoop-carrying distributions: causal consistency of the run vs
    off-clique traffic.  The efficient protocol is causal exactly where
    Theorem 1 allows it. *)

val hoop_census : ?pool:Repro_util.Pool.t -> seed:int -> unit -> table
(** {b H1} — hoop census.  Over random distributions (12 processes, 20
    samples per cell), the fraction of variables with at least one hoop
    and the average number of x-relevant processes beyond [C(x)], as the
    replication factor and the variable count vary.  Quantifies §3.3's
    "any process is likely to belong to any hoop". *)

val bottleneck : seed:int -> unit -> table
(** {b B1} — centralization bottleneck.  With a per-node service rate,
    write-heavy workloads complete in time growing with [n] on the
    sequencer memory (every write serializes at one node) and flat on the
    PRAM memory.  The scalability requirement of §3.3(i), measured. *)

val loss_sweep : seed:int -> unit -> table
(** {b L1} — reliability cost.  The reliable FIFO channels the paper's
    model assumes, rebuilt over lossy links by {!Repro_core.Pram_reliable}
    (pram-partial over the session layer): protocol messages per write,
    session overhead bytes per write, completion time and delivery
    completeness as the link drop rate sweeps 0–40% (5% duplication). *)

val op_costs : seed:int -> unit -> table
(** {b C1} — per-operation cost profile.  For every protocol: messages per
    write, control bytes per write, whether reads/writes block, and
    simulated time to quiescence on a fixed workload.  Quantifies the
    latency argument of §3.3/[2]. *)

val adversarial_histories :
  Repro_core.Registry.spec -> seed:int -> (string * Repro_history.History.t) list
(** Protocol-level re-creations of the paper's counterexample figures,
    executed on the given protocol with adversarially chosen link
    latencies:

    - ["hoop-leak"] — the Theorem-1 chain: a causal dependency routed
      through a y-hoop whose interior variables the receiver does not
      share (violates causal on the efficient protocols);
    - ["fig5"] — the Fig. 5 pattern ([w(x)a … → w(x)d] with a late direct
      x-update): violates lazy-causal on PRAM-or-weaker protocols;
    - ["fig6"] — the Fig. 6 pattern (one more hop through [z], with the
      own-write read making the printed lwb-chain well-typed): violates
      lazy-semi-causal on PRAM-or-weaker protocols.

    Returns [] for protocols that cannot run them (blocking or requiring
    full replication).  The histories feed {!criterion_matrix} and the
    test suite. *)

val all : ?pool:Repro_util.Pool.t -> seed:int -> unit -> table list
(** Every table above, in DESIGN.md order.  The tables (and, inside the
    heavier ones, their per-size / per-protocol / per-cell sweeps) run
    concurrently on [pool] ({!Repro_util.Pool.default} unless given);
    results are joined in submission order, so the output is deterministic
    for a given seed regardless of the worker count. *)

val find : string -> (seed:int -> unit -> table) option
(** Look an experiment up by id (["E1"], ["T1"], …), case-insensitive. *)

val ids : string list
