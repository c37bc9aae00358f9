(** Deterministic fault injection over any {!Transport} backend.

    Applies a {!Repro_msgpass.Fault.Plan} — per-link drop/duplicate/reorder
    probabilities, time-windowed partitions, a crash schedule — at the
    transport seam, below any {!Session} layer and above the backend.  Every
    fault decision comes from a per-link RNG stream derived from the plan
    seed, with a fixed number of draws per send, so the decision sequence
    for a link depends only on that link's own send index: the identical
    plan reproduces on the deterministic simulator and on live TCP.

    Crashes: after a node's [after_sends]-th transport send (which still
    goes out), the wrapper either raises {!Injected_crash} when the backend
    hosts exactly that node (live cluster — the process dies and the
    supervisor respawns it to recover from its write-ahead log), or, on a
    whole-instance simulator backend, silences the node for the restart
    window (sends and deliveries dropped, state intact — an amnesia-free
    approximation; full crash-restart semantics are exercised on the live
    tier). *)

exception Injected_crash of int
(** Raised from inside [send] on a live backend when the hosted node hits
    its scheduled crash.  The cluster harness maps it to exit code 42. *)

type stats = {
  drops : int;  (** Injected drops (including partition and down-window). *)
  duplicates : int;
  delays : int;  (** Reorder delays applied. *)
  crashes : int;
}

type control = { stats : unit -> stats }

val wrap :
  ?incarnation:int ->
  plan:Repro_msgpass.Fault.Plan.t ->
  Transport.factory ->
  Transport.factory * control
(** [wrap ~plan inner] validates the plan (again with [n] at create time)
    and layers the injector over [inner].  [incarnation > 0] disables the
    crash schedule: a respawned process must not re-crash. *)
