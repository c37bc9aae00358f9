(** Fault injection for the message-passing substrate.

    The DSM protocols in this repository assume the reliable channels of the
    paper's model, and the simulator ({!Net}) provides exactly those.  Every
    injected fault is a {!Plan}: a seeded deterministic plan applied at the
    transport seam ({!Repro_transport.Chaos}), so the identical plan
    reproduces on the simulator and on live TCP. *)

(** Seeded, deterministic fault plans.

    A plan is static data: per-link fault probabilities, time-windowed
    partitions, and a crash schedule.  All fault decisions are drawn from
    per-link RNG streams derived from [seed] — decisions for a link depend
    only on that link's own send index, so the same plan produces the same
    decisions on any backend.  Times are in transport ticks (milliseconds
    on the live backend). *)
module Plan : sig
  type link = {
    drop : float;
    duplicate : float;
    reorder : float;
        (** Probability a message's delivery is delayed by a random extra
            amount (up to [delay_max]), letting later traffic overtake it. *)
  }

  type partition = {
    from_t : int;
    until_t : int;  (** Window [\[from_t, until_t)). *)
    group : int list;
        (** Members are isolated from non-members (both directions) while
            the window is open; traffic within each side still flows. *)
  }

  type crash = {
    node : int;
    after_sends : int;
        (** The node crashes immediately after its [after_sends]-th
            transport-level send. *)
    restart_after : int option;
        (** Restart delay in ticks (ms live); [None] means no restart. *)
  }

  type dcrash = {
    dnode : int;
    point : string;
        (** A durability crash point name
            ({!Repro_durable.Fsio.Crashpoint.points}): the node dies inside
            its WAL write path at exactly this step. *)
    powercut : bool;
        (** Power-cut semantics: before dying, the log is truncated to its
            synced floor — unsynced writes vanish as if the device lost its
            cache, not just the process. *)
    after_hits : int;  (** Die on the [after_hits]-th hit of [point]. *)
    drestart_after : int option;
        (** Restart delay in ms; [None] means no restart. *)
  }

  type reconfig = {
    rnode : int;
    at_ms : int;  (** When the membership event fires, ms into the run. *)
  }

  type plan = {
    seed : int;
    default_link : link;
    links : ((int * int) * link) list;  (** Per-link overrides, [(src, dst)]. *)
    partitions : partition list;
    crashes : crash list;
    dcrashes : dcrash list;
        (** Seeded crash-point schedule inside the durability write path;
            only meaningful when the run has a WAL. *)
    joins : reconfig list;
        (** Scripted membership: the node enters the consistent-hash ring at
            [at_ms].  Consumed by the reconfiguration supervisor
            ([repro_cluster]); inert for static runs. *)
    leaves : reconfig list;  (** The node leaves the ring at [at_ms]. *)
    delay_max : int;  (** Max extra delay for reordered/duplicated copies. *)
  }

  type t = plan

  val none : t
  (** No faults; applying it is a no-op. *)

  val is_none : t -> bool

  val clean : link

  val clauses : t -> string list
  (** The fault clause kinds the plan uses, in {!to_string}'s order: each
      of ["drop"], ["dup"], ["reorder"], ["delay"], ["link"], ["part"],
      ["crash"], ["dcrash"], ["join"] and ["leave"] that is present.  A
      runtime rejects the kinds it does not apply rather than ignore
      them. *)

  val link_for : t -> src:int -> dst:int -> link

  val partitioned : t -> now:int -> src:int -> dst:int -> bool

  val crash_for : t -> int -> crash option
  (** The crash entry for a node, if any ([validate] rejects duplicates). *)

  val dcrash_for : t -> int -> dcrash option
  (** The durability crash entry for a node, if any. *)

  val link_seed : t -> src:int -> dst:int -> int
  (** Seed for the link's private fault-decision RNG stream. *)

  val validate : ?n:int -> t -> unit
  (** Static sanity check; when [n] is given, node ids are range-checked.
      @raise Invalid_argument on out-of-range probabilities, bad windows,
      duplicate link overrides, duplicate or malformed crash entries. *)

  val parse : string -> (t, string) result
  (** Parse the compact comma-separated syntax, e.g.
      ["seed=5,drop=0.05,dup=0.01,crash=1@6+300"] or
      ["drop=0.1,link=0>2:drop=0.5:reorder=0.3,part=100..400:0+2"].
      Clauses: [seed=K], [drop=P], [dup=P], [reorder=P], [delay=D],
      [link=S>D:field=v:...], [part=T1..T2:A+B], [crash=N@K+R] (omit [+R]
      for no restart), [dcrash=N:POINT@K+R] (die at the [K]-th hit of the
      named durability crash point; suffix [POINT] with [!] for power-cut
      semantics), [join=N\@MS], [leave=N\@MS] (scripted membership events
      at MS ms into the run).  The result is validated. *)

  val to_string : t -> string
  (** Canonical round-trippable rendering ([parse (to_string t)] succeeds). *)
end
