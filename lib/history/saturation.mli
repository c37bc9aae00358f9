(** Polynomial decision front-end for serialization units.

    [find_serialization] decides a unit by exponential backtracking; for the
    differentiated histories this repo produces, polynomial procedures decide
    almost every unit directly:

    - {b saturation}: starting from the unit's relation, the read-from edges
      and the Init-read constraints, repeatedly add the write-order edges
      forced by every legal serialization (after Bouajjani et al., "On
      Verifying Causal Consistency", POPL 2017: if the source [w] of a read
      [r] of [x] precedes another [x]-write [w'], then [r] must precede
      [w']; if [w'] precedes [r], it must precede [w]).  A cycle among
      forced edges refutes the unit outright.  When the relation totally
      orders the unit's reads, as causality orders one process's reads, an
      acyclic result proves the unit ({!decide_causal}).
    - {b stream merge}: units whose reads all belong to one process (the
      PRAM/slow decomposition) are first attempted as a monotone merge of
      the other processes' FIFO write streams against the reader's program
      order (after Wei et al., "Verifying PRAM Consistency over Read/Write
      Traces of Data Replicas"); the candidate schedule is validated against
      the full unit relation before being accepted.
    - {b guided greedy}: an acyclic saturated order is handed to a
      deterministic constructor that places every ready legal read eagerly
      and only picks writes that keep all open read windows alive; success
      yields a legal serialization witness-free.

    Each procedure is {e sound} but not complete: [serializable] answers
    [Unknown] whenever none of them can prove the unit either way, and the
    caller falls back to the search.  Verdicts therefore always coincide
    with [find_serialization] — enforced by the [REPRO_CHECK_ORACLE] flag
    and the qcheck parity suite. *)

type outcome = Consistent | Inconsistent | Unknown

val decide : Unit_view.t -> outcome
(** Decide one unit from its view: the merge, then saturation, then the
    greedy on an acyclic result. *)

val decide_causal : Unit_view.t -> outcome
(** Decide one unit by its saturation alone: a cycle refutes, an acyclic
    result proves, with no merge and no greedy.  A read no write of the
    unit supplies refutes and two writers of one value answer [Unknown],
    as in {!decide}.

    The proof needs the unit's reads totally ordered by the relation, as in
    a process unit of the causal criterion (the process's reads are in
    program order, which causality contains).  Place the reads in that
    order, each after the not yet placed writes saturation puts before it,
    in an order extending the saturation, then the writes left: every
    write of a read's variable placed before the read precedes the read in
    the saturation, so it precedes the read's source or is the source, and
    the order is legal.  This is Bouajjani et al.'s theorem for causal
    memory (an acyclic happens-before on a differentiated history admits
    the serialization), applied to one process's unit.  The checker routes
    only the causal criterion's process units here; on a unit whose reads
    the relation leaves unordered an acyclic result proves nothing. *)

val serializable :
  History.t -> subset:int list -> relation:Orders.relation -> outcome
(** Decide whether the subset admits a legal serialization respecting the
    relation, with the same semantics as
    [find_serialization <> None] — including the search engine's treatment
    of reads whose source lies outside the subset (no serialization).
    Subsets containing two writes of the same value to the same variable
    (non-differentiated within the unit) answer [Unknown].  Builds the
    history's writer index and the unit's view, then calls {!decide}; to
    decide many units of one history, build the index once
    ({!Relcache.index}) and call {!decide} on each view. *)

(** {2 Instrumentation} *)

type counters = {
  merge_hits : int;  (** units proved consistent by the stream merge *)
  cycle_refutations : int;
      (** units refuted without search: a saturation cycle, or a read whose
          value no write in the unit supplies *)
  greedy_hits : int;  (** units proved consistent by the guided greedy *)
  unknowns : int;  (** units punted to the search engine *)
  acyclic_hits : int;
      (** units {!decide_causal} proved consistent by an acyclic
          saturation; its refutations count in [cycle_refutations] *)
}

val counters : unit -> counters
(** Process-wide totals since start or the last {!reset_counters}; updated
    atomically (the parallel checker shares them across domains). *)

val reset_counters : unit -> unit

(**/**)

module Private : sig
  val saturate : Unit_view.t -> [ `Cycle | `Acyclic of Unit_view.rows ]
  (** A fresh copy of the saturated successor rows of a unit, exactly
      closed, or [`Cycle] when the forced precedence has one.  Exposed only so tests can assert
      that a view whose relation is closed saturates exactly as one whose
      relation is closed here. *)
end
