(** The polynomial decision procedure for serialization units.

    [Checker.find_serialization] decides a unit by exponential
    backtracking; for the differentiated histories this repo produces,
    {!decide} decides almost every unit of every criterion directly, by
    one rule:

    - {b screens}: an empty unit is consistent, a read no write of the
      unit supplies refutes, and two writers of one value answer
      [Unknown] (value-based legality cannot tell them apart).
    - {b stream merge}, only when the unit's relation is not closed (PRAM
      and slow units): a unit whose reads all belong to one process is
      attempted as a monotone merge of the other processes' FIFO write
      streams against the reader's program order (after Wei et al.,
      "Verifying PRAM Consistency over Read/Write Traces of Data
      Replicas"); the candidate is validated against the full unit
      relation before it is accepted.  Saturation would first have to
      close such a relation, which costs more than the merge.
    - {b saturation}: starting from the unit's relation, the read-from
      edges and the Init-read constraints, repeatedly add the write-order
      edges forced by every legal serialization (after Bouajjani et al.,
      "On Verifying Causal Consistency", POPL 2017: if the source [w] of
      a read [r] of [x] precedes another [x]-write [w'], then [r] must
      precede [w']; if [w'] precedes [r], it must precede [w]).  A cycle
      among forced edges refutes the unit.  An acyclic result whose rows
      order every pair of the unit's reads proves it: place the reads in
      that order, each after the not yet placed operations saturation
      puts before it, in an order extending the saturation, then the
      operations left.  Every write of a read's variable placed before
      the read precedes the read in the saturation, so it precedes the
      read's source or is the source, and the order is legal.  This is
      Bouajjani et al.'s theorem for causal memory (an acyclic
      happens-before on a differentiated history admits the
      serialization), and it holds for any unit whose reads the
      saturation orders: the causal, semi-causal, PRAM and slow units,
      whose relations order one process's reads.
    - {b guided greedy}, only on an acyclic result whose reads stay
      unordered (lazy, cache and sequential units): a deterministic
      constructor places every ready legal read eagerly and only picks
      writes that keep all open read windows alive; success yields a
      legal serialization witness-free.

    Each step is {e sound} but not complete: [decide] answers [Unknown]
    when none of them proves the unit either way, and the caller falls
    back to the search.  Verdicts therefore always coincide with
    [Checker.find_serialization] — enforced by the [REPRO_CHECK_ORACLE]
    flag and the qcheck parity suite. *)

type outcome = Consistent | Inconsistent | Unknown

val decide : Unit_view.t -> outcome
(** Decide one unit from its view by the steps above, in that order. *)

(** {2 Instrumentation} *)

type counters = {
  merge_hits : int;  (** units proved consistent by the stream merge *)
  cycle_refutations : int;
      (** units refuted without search: a saturation cycle, or a read whose
          value no write in the unit supplies *)
  greedy_hits : int;  (** units proved consistent by the guided greedy *)
  unknowns : int;  (** units punted to the search engine *)
  acyclic_hits : int;
      (** units proved consistent by an acyclic saturation whose rows
          order every pair of the unit's reads *)
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
