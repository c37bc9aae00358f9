(** One process of a reconfigurable cluster: the membership runtime.

    Unlike {!Node}, which hosts a static protocol instance, a member
    serves a live consistent-hash placement ({!Repro_sharegraph.Ring})
    that the reconfiguration supervisor ({!Reconfig}) reshapes at
    runtime.  The division of labour:

    - {e Writers are fixed}: variable [x] is written only by process
      [x mod n], forever — membership never moves write ownership, so
      every variable has a single writer and per-variable sequence
      numbers totally order its writes.
    - {e Holders follow the ring}: the current epoch's ring decides which
      members replicate (and serve reads of) each variable.  Writers
      push updates to the replica set; during a transition they push to
      the {e union} of old and new holders.
    - {e State transfer}: when a proposal makes this member a new holder
      of [x], the donor — the least-id surviving old holder — streams
      its record of [x] ({!Migrate}, idempotent by sequence number),
      then one {!Done} per receiver.  The receiver pulls ({!Pull}) from
      every donor whose [Done] has not arrived, every 400 ms after the
      first 500, and the donor answers by resending the batch it keeps
      until a newer proposal supersedes it: the pull is the only resend.
      A variable with no surviving donor degrades gracefully to [Init].
    - {e One data path}: every member-to-member message is a {!msg} in a
      [Data] frame, sent through the {!Repro_transport.Transport.t} that
      {!Repro_transport.Live.factory} builds with {!codec}.  The
      committed epoch is stamped into every frame
      ({!Repro_transport.Live.set_epoch}), so stale frames are dropped
      and counted at the transport seam.
    - {e Durability}: every externalized effect (own op, applied remote
      record, membership transition, received [Done]) is appended to a
      write-ahead log {e before} it becomes visible, with [Every 1]
      fsync, so a crash mid-migration resumes exactly where it stopped:
      a respawned donor re-derives and re-sends its batches, a respawned
      receiver re-derives the donors it still waits on.

    The advertised criterion for this tier is {e cache consistency}
    (per-variable sequential): single-writer per-variable sequencing and
    monotone application make every per-variable projection serializable
    even across migrations.  PRAM does not survive reconfiguration — a
    donor whose view of a writer lags another donor's can migrate
    cross-variable state out of the writer's program order (DESIGN.md,
    "Why the reconfiguration tier advertises cache consistency"). *)

module Fault = Repro_msgpass.Fault
module Op = Repro_history.Op

(** Member-to-member messages.  Each carries 8 declared control bytes
    (the per-writer sequence number, or the epoch), and [Update] and
    [Migrate] 8 payload bytes for the value — the pricing of
    [pram-partial]'s update. *)
type msg =
  | Update of { var : int; wseq : int; value : int }
      (** a writer's [wseq]-th write of [var], pushed to its holders *)
  | Migrate of { var : int; wseq : int; value : int }
      (** a donor's record of [var], streamed to a new holder *)
  | Done of { epoch : int }  (** the donor's batch for [epoch] is complete *)
  | Pull of { epoch : int }  (** a receiver still waits on the donor *)

val codec : msg Repro_transport.Codec.t
(** Strict: a tag byte, then [i32] var and wseq and an [i64] value, or
    an [i32] epoch.  An unknown tag, a truncated body or trailing bytes
    raise {!Repro_transport.Codec.Bad}. *)

type config = {
  self : int;
  n : int;  (** total processes; writers are [x mod n] regardless of ring *)
  listen_fd : Unix.file_descr;
  peers : Unix.sockaddr array;
  seed : int;  (** ring seed and fingerprint stamp *)
  k : int;  (** replication degree *)
  vnodes : int;
  n_vars : int;
  initial_members : int list;  (** ring members at epoch 0 *)
  writes_target : int;
      (** writes this process issues, one every 5 ms; a member gives up
          on peers after 10 s, on the run after 60 s, and drains for a
          300 ms quiet window after [finish] *)
  chaos : Fault.Plan.t option;
      (** [crash=N\@K+R] counts {e migration-record sends} in this tier
          (deterministic given the ring); [dcrash] arms the WAL crash
          points as in the static durable tier. *)
  wal_dir : string option;  (** required for crash/recovery plans *)
  incarnation : int;
}

type result = {
  node : int;
  incarnation : int;
  ops : (Op.kind * int * Op.value) list;  (** program order *)
  writes_done : int;
  reads_done : int;
  committed_epoch : int;
  stale_epochs : int;  (** [Data] frames the epoch fence rejected here *)
  transfers_in : int;  (** migration records applied *)
  transfers_out : int;  (** migration records sent *)
  retries : int;  (** batches resent because a receiver pulled *)
  init_fallbacks : int;  (** owed variables with no surviving donor *)
  unavail_ms : int;
      (** longest proposal→ready/commit window during which this member
          owed state it could not yet serve *)
  recovered_ops : int;  (** ops replayed from the WAL on respawn *)
  wall_ms : int;
}

exception Crash of string
(** {!Supervisor.Crash}. *)

val run : config -> result
(** Run until the supervisor sends [Finish] ({!Repro_transport.Control}),
    then drain and report.  A scheduled crash escapes as
    {!Repro_transport.Chaos.Injected_crash}; the supervisor maps it to
    exit 42 and respawns with [incarnation + 1].
    @raise Crash on timeout. *)

val salvage : node:int -> dir:string -> result option
(** Read a dead member's operations back from the WAL it left in [dir]
    (a member logs every op before any peer can see it), so the history
    stays closed under reads even when the process never reported.
    [None] when the log is missing or a record does not decode.  The
    result carries the ops, their counts and the last committed epoch;
    every other counter is 0. *)
