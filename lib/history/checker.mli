(** Deciding whether a history satisfies a consistency criterion.

    Each criterion is defined by the existence of serializations (Definition
    1) of certain operation subsets that respect a certain order relation:

    - {b Sequential} — one serialization of all of [H] respecting program
      order (Lamport 79);
    - {b Causal} — per process [i], a serialization of [H_{i+w}] respecting
      [7→_co] (Definition 2);
    - {b Lazy_causal} — idem with [7→_lco] (Definition 7);
    - {b Semi_causal} — idem with the semi-causality order of Ahamad et
      al. [1] (weak program order + weak writes-before, §4.2);
    - {b Lazy_semi_causal} — idem with [7→_lsc] (Definition 10);
    - {b Pram} — idem with [7→_pram] (Definition 12; the relation is not
      transitive and is restricted to [H_{i+w}] without closing through
      absent operations);
    - {b Slow} — per process [i] and variable [x], a serialization of
      [i]'s reads of [x] plus all writes of [x], respecting program order
      and read-from (Hutto–Ahamad slow memory);
    - {b Cache} — per variable [x], one serialization of all operations on
      [x] respecting program order (Goodman's cache consistency).

    Two engines decide existence.  The default {b saturation} engine runs
    one procedure on every unit of every criterion ({!Saturation.decide}):
    it derives the write-order constraints forced by every legal
    serialization and refutes by cycle, and an acyclic result whose rows
    order every pair of the unit's reads is the proof (the causal,
    semi-causal, PRAM and slow units).  A stream merge proves most units
    of an open relation (PRAM, slow) before any saturation, and a guided
    construction the units whose reads stay unordered.  It falls back to
    the search only when none of them can prove — polynomial on virtually
    every unit this repository produces.  It decides the unit of process
    [i] of PRAM and of the causal family over [i]'s reads plus every write
    of a variable [i] reads ({!Unit_view.proc_unit}), not over
    [H_{i+w}], under the whole history's relation; a process with no read
    has an empty unit.  The verdicts stay: PRAM's unit by unit, the causal
    family's per criterion (a relation cycle runs through a read, whose
    own process keeps it), as DESIGN.md proves.
    The {b search} engine is the original backtracking search over legal
    linear extensions: exponential in the worst case (reads are placed
    greedily — which is always safe — and explored states are memoized),
    and still the witness extractor and cross-check oracle.  Both engines
    return identical verdicts on every input; setting the
    [REPRO_CHECK_ORACLE] environment variable makes every
    saturation-engine decision assert agreement with the search on the
    unit it was made on.

    Histories must be {e differentiated} (unique written values per
    variable, {!History.is_differentiated}); protocol runs and generators
    in this repository always produce such histories. *)

type criterion =
  | Sequential
  | Causal
  | Semi_causal
  | Lazy_causal
  | Lazy_semi_causal
  | Pram
  | Slow
  | Cache

val all_criteria : criterion list
(** In decreasing-strength-ish order: [Sequential; Causal; Semi_causal;
    Lazy_causal; Lazy_semi_causal; Pram; Cache; Slow]. *)

val criterion_name : criterion -> string

type verdict = Consistent | Inconsistent | Undecidable of History.rf_error

val verdict_name : verdict -> string
(** ["consistent"], ["VIOLATION"] or ["undecidable"], as run reports
    print them. *)

type engine = Search | Saturation
(** [Search]: the exact backtracking serialization search.  [Saturation]:
    the polynomial front-end of {!Saturation}, falling back to the search
    on the rare unit it cannot prove.  Identical verdicts, different
    asymptotics.  Every entry point defaults to [Saturation]; tests and
    [bench --check] pass [Search] as the reference. *)

val check : ?engine:engine -> criterion -> History.t -> verdict
(** [Undecidable] only for ambiguous (non-differentiated) histories; a
    dangling read yields [Inconsistent]. *)

val check_cached : ?engine:engine -> Relcache.t -> criterion -> verdict
(** [check] against a shared relation cache: sweeping several criteria over
    one history computes read-from, program order and each closure once
    instead of once per criterion.  Same verdicts as {!check}. *)

val check_par :
  ?pool:Repro_util.Pool.t -> ?engine:engine -> criterion -> History.t -> verdict
(** [check] with the criterion's serialization units (per process for the
    causal family, per process × variable for Slow, per variable for Cache)
    farmed across a domain pool ({!Repro_util.Pool.default} unless [pool]
    is given), with early exit on the first inconsistent unit.  Always
    returns the same verdict as {!check}. *)

val is_consistent : criterion -> History.t -> bool
(** [check] collapsed to a boolean.
    @raise Invalid_argument on an ambiguous history. *)

(** {1 Serialization primitives} *)

val serializable :
  ?engine:engine -> History.t -> subset:int list -> relation:Orders.relation -> bool
(** Decide whether a legal serialization exists, without extracting one:
    [serializable h ~subset ~relation = (find_serialization h ~subset
    ~relation <> None)] for every input, but polynomial on almost all units
    under the saturation engine. *)

val find_serialization :
  History.t -> subset:int list -> relation:Orders.relation -> int list option
(** [find_serialization h ~subset ~relation] searches for a legal
    serialization (Definition 1) of the operations with global ids [subset]
    that respects [relation] restricted to [subset].  Returns the global ids
    in serialization order. *)

val validate_serialization :
  History.t -> subset:int list -> relation:Orders.relation -> order:int list -> bool
(** [validate_serialization h ~subset ~relation ~order] checks in polynomial
    time that [order] is a permutation of [subset], is legal (every read
    returns the most recent preceding write's value, or [Init] if none), and
    respects [relation].  Used to audit witness serializations extracted
    from protocol runs. *)

type unit_key = Whole | Proc of int | Var of int | Proc_var of int * int
(** Diagnostic key of a serialization unit: the whole history for
    Sequential, a process for the causal family and PRAM, a variable for
    Cache, a (process, variable) pair for Slow. *)

val unit_key_name : unit_key -> string

val witness : criterion -> History.t -> (unit_key * int list) list option
(** When consistent, the per-unit serializations found by the search,
    keyed by {!unit_key}.  [None] when inconsistent or undecidable.
    Intended for debugging and for tests that cross-validate with
    {!validate_serialization}.  Always uses the search engine, on the
    full units ([H_{i+w}] per process): the saturation front-end only
    decides, it does not enumerate. *)

(**/**)

module Private : sig
  val units : criterion -> Relcache.t -> (unit_key * int list * Orders.relation) list
  (** The serialization units of the criterion, as the search engine and
      {!witness} decompose it (full units): key, subset and relation.
      Exposed only so tests can decide each unit on its own. *)

  val pack_state : k:int -> placed:int list -> last_write:int array -> int array
  (** The packed memo-key encoding of a search state over a [k]-operation
      subset: [placed] lists the placed local indices, [last_write.(slot)]
      is the local index of the last placed write per variable slot ([-1]
      for none).  Exposed only so tests can assert injectivity of the
      encoding (notably around the 16-bit slot-packing boundary). *)
end
