(** Dense local view of one serialization unit, shared by both checking
    engines: {!Saturation.decide} and the search in {!Checker}.

    A unit is a subset of a history's operations plus a relation on the
    whole history.  The view renumbers the subset [0 .. k-1] and stores the
    relation restricted to it twice, as predecessor and as successor bit
    rows.  Two constructions give a view: {!make}, for any subset, numbers
    it in subset order; {!proc_unit}, for the unit the saturation engine
    decides for one process (its reads plus every write of a variable it
    reads), cuts it from a {!skeleton} built once per history and
    relation. *)

(** {1 Bit rows}

    A row over [k] local indices is an [int array] of [words_for k] words,
    32 bits per word, so membership, subset and union touch machine words
    with no bounds checks beyond the array's own.  A view's relation keeps
    its rows side by side in one array ({!rows}); the functions below are
    for standalone rows. *)

val words_for : int -> int
val mem : int array -> int -> bool
val add : int array -> int -> unit
val remove : int array -> int -> unit

val iter_row : (int -> unit) -> int array -> unit
(** Calls the function on each set bit, ascending; the work is one step
    per word plus one per set bit. *)

val first_such : (int -> bool) -> int array -> int
(** The lowest set bit satisfying the predicate, or [-1]. *)

(** {1 Flat rows} *)

type rows = { w : int; bits : int array }
(** Bit rows of [w] words each in one array: row [i] is the words
    [i*w .. i*w + w - 1] of [bits], which may be longer than the rows in
    use.  A standalone row paired with it has [w] words. *)

val row_mem : rows -> int -> int -> bool
(** [row_mem m i j]: row [i] holds [j]. *)

val iter_in_row : (int -> unit) -> rows -> int -> unit
(** [iter_in_row f m i] is {!iter_row} over row [i]. *)

val row_subset : rows -> int -> int array -> bool
(** [row_subset m i b]: row [i] is a subset of the standalone row [b]. *)

val union_row_into : int array -> rows -> int -> unit
(** [union_row_into b m i] sets in [b] every bit of row [i]. *)

val union_into_row : rows -> int -> int array -> unit
(** [union_into_row m i b] sets in row [i] every bit of [b]. *)

val scratch_rows : rows -> int -> rows
(** [scratch_rows m k]: the first [k] rows of [m], copied by a typed word
    loop into a buffer this domain reuses (an [Array.blit] into a
    major-heap [int array] pays the write barrier per word, and a fresh
    buffer per unit would be a major-heap block).  Valid until the next
    [scratch_rows] call in the same domain. *)

(** {1 The writer index} *)

type index
(** A whole history's operations, each mapped to the global ids of the
    writes that store its value in its variable: a write maps to itself and
    any duplicate, a read to the candidate sources of its value, an
    [Init]-read to none.  Built once per history and shared by all its
    units. *)

val index : Op.t array -> writers:int list array -> index
(** [index ops ~writers]: [ops] is the whole history in global-id order
    ({!History.ops}) and [writers] its {!History.writers}; both are kept,
    not copied.  {!Relcache.index} memoizes it per history. *)

(** {1 Views} *)

type t = {
  ops : Op.t array;  (** local index -> operation *)
  gids : int array;  (** local index -> global id *)
  preds : rows;  (** local index -> relation predecessors *)
  succs : rows;  (** local index -> relation successors *)
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
  slot_writes : int list array;
      (** variable slot -> the local indices of the unit's writes on it,
          ascending *)
  programs : int array array;
      (** process -> the local indices of its operations in the unit, in
          program order (global-id order) *)
}

val make : index -> subset:int list -> relation:Orders.relation -> t
(** [make index ~subset ~relation]: walks the relation's adjacency of the
    subset's operations once, and takes each read's source from the
    history's writer index.  The view is fresh and numbered in subset
    order.  It is the reference construction: the search engine, the
    witness, the oracle and the units that are not one per process use
    it. *)

(** {1 Process units}

    The saturation engine decides the PRAM and causal-family unit of
    process [p] over [p]'s reads plus every write of a variable [p] reads:
    the full unit, [p]'s operations plus every write ({!Relcache.proc_ids}),
    less the writes of the variables [p] never reads.  The relation is
    still the whole history's.  A process with no read has an empty unit.
    [Checker] documents why no verdict moves. *)

type skeleton
(** What a history's process units are cut from, for one relation: each
    process's reads in program order, each variable's writes, and which
    processes read every written variable, so that their unit keeps every
    write.  When some process does, it also holds the rows those units
    share: the relation restricted to the writes, as flat rows; each
    write's variable slot and writer; each process's writes in program
    order; each read's edges with the writes and with its own process's
    reads, and its source.  Immutable once built, so the units of one
    skeleton may be built in several domains. *)

val skeleton : index -> Orders.relation -> skeleton
(** A pass over the history's operations for the tables; the shared rows,
    when some unit keeps every write, take one walk of the relation's
    adjacency lists over the whole history. *)

val proc_unit : skeleton -> int -> t
(** [proc_unit sk p]: the unit of process [p], [p]'s reads plus every
    write of a variable [p] reads.  It is the same unit as
    [make index ~subset ~relation] over those operations, numbered
    differently: the writes [0 .. W-1] in global-id order, then [p]'s
    reads in program order.  Both numberings keep the writes' relative
    order, which is what the choices of {!Saturation.decide} depend on.

    A unit that keeps every write is built on the shared rows: their
    write rows and [p]'s read rows are copied, word by word, into two row
    buffers that this domain reuses for every unit, then each read's
    edges are added to the write rows.  Its rows are as wide as the
    widest such unit needs, which may be more than [words_for k], and its
    [slot_writes] is the skeleton's, the same for every such unit.  Any
    other unit is built from the tables alone, in time and space that
    grow with the unit, not the history: its writes are gathered from
    the variables [p] reads, and each ordered pair's edge is read from the
    relation's edge matrix ({!Repro_util.Graph.mem_edge}) into the same
    two buffers, cleared first.  Either way the view is valid only until
    the next [proc_unit] call in the same domain: decide it first. *)

val var_slot : t -> Op.t -> int
(** The dense slot of the operation's variable. *)

val read_legal : t -> int array -> Op.t -> bool
(** [read_legal view last o]: placing the read [o] now is legal, given
    [last.(slot)], the local index of the last placed write to each slot
    ([-1] for none). *)
