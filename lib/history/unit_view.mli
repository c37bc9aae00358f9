(** Dense local view of one serialization unit, shared by both checking
    engines: the {!Saturation} decision procedures and the search in
    {!Checker}.

    A unit is a subset of a history's operations plus a relation on the
    whole history.  The view renumbers the subset [0 .. k-1] (in subset
    order) and stores the relation restricted to it twice, as predecessor
    and as successor bit rows. *)

(** {1 Bit rows}

    A row over [k] local indices is an [int array] of [words_for k] words,
    32 bits per word, so membership, subset and union touch machine words
    with no bounds checks beyond the array's own. *)

val words_for : int -> int
val mem : int array -> int -> bool
val add : int array -> int -> unit
val remove : int array -> int -> unit

val subset : int array -> int array -> bool
(** [subset a b]: every bit of [a] is set in [b] (same word count). *)

val union_into : int array -> int array -> unit
(** [union_into dst src] sets in [dst] every bit of [src]. *)

val iter_row : (int -> unit) -> int array -> unit
(** Calls the function on each set bit, ascending; the work is one step
    per word plus one per set bit. *)

val first_such : (int -> bool) -> int array -> int
(** The lowest set bit satisfying the predicate, or [-1]. *)

(** {1 The writer index} *)

type index
(** A whole history's operations, each mapped to the global ids of the
    writes that store its value in its variable: a write maps to itself and
    any duplicate, a read to the candidate sources of its value, an
    [Init]-read to none.  Built once per history and shared by all its
    units. *)

val index : Op.t array -> index
(** [index ops]: [ops] is the whole history in global-id order
    ({!History.ops}); it is kept, not copied.  {!Relcache.index} memoizes
    it per history. *)

(** {1 Views} *)

type t = {
  ops : Op.t array;  (** local index -> operation *)
  gids : int array;  (** local index -> global id *)
  preds : int array array;  (** local index -> relation predecessors *)
  succs : int array array;  (** local index -> relation successors *)
  closed : bool;
      (** the relation is known to be transitively closed
          ({!Repro_util.Graph.is_closed}), and so are [succs] and [preds]:
          a restriction of a closed relation stays closed *)
  var_slot_of : int array;  (** variable -> dense slot, [-1] when absent *)
  n_vars : int;  (** number of slots *)
  source : int array;
      (** local index -> for a read, the local index of the write in the
          unit that supplies its value (of several, the latest in subset
          order); [-1] for an [Init]-read; [-2] for writes and for reads no
          write of the unit supplies *)
  missing_source : bool;  (** some read has source [-2] *)
  dup_writer : bool;
      (** two writes of the unit store the same value in the same
          variable, so [source] is not determined by the value alone *)
}

val make : index -> subset:int list -> relation:Orders.relation -> t
(** [make index ~subset ~relation]: walks the relation's adjacency of the
    subset's operations once, and takes each read's source from the
    history's writer index. *)

val var_slot : t -> Op.t -> int
(** The dense slot of the operation's variable. *)

val read_legal : t -> int array -> Op.t -> bool
(** [read_legal view last o]: placing the read [o] now is legal, given
    [last.(slot)], the local index of the last placed write to each slot
    ([-1] for none). *)
