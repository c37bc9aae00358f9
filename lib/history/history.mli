(** Histories: collections of per-process local operation sequences
    (paper §2).

    Operations are addressed two ways: by [(proc, index)] pairs, and by a
    {e global id} in [0 .. n_ops-1] (process-major order) used by the
    relation machinery in {!Orders}. *)

type t

val of_lists : (Op.kind * int * Op.value) list list -> t
(** [of_lists specs] builds a history from per-process operation specs (see
    {!Op.read} / {!Op.write}); list [i] becomes the local history of process
    [i], in program order.  @raise Invalid_argument on a negative variable. *)

val n_procs : t -> int

val n_ops : t -> int
(** Total operation count across all processes. *)

val local : t -> int -> Op.t array
(** [local h i] is the local history [h_i] in program order (fresh copy). *)

val vars : t -> int list
(** Variables occurring in the history, ascending. *)

val ops : t -> Op.t array
(** All operations in global-id order (fresh copy). *)

val op : t -> int -> Op.t
(** Operation with the given global id. *)

val id : t -> Op.t -> int
(** Global id of an operation (by its [(proc, index)] address).
    @raise Invalid_argument when out of range. *)

val id_of_addr : t -> proc:int -> index:int -> int

val writes : t -> Op.t list
(** All write operations, in global-id order. *)

val sub_history : t -> int -> Op.t list
(** [sub_history h i] is [H_{i+w}]: all operations of process [i] plus all
    writes of [h], in global-id order (paper §2). *)

val writers : t -> int list array
(** [writers h] maps each global id to the writes of [h] that store the
    operation's value in its variable, by global id, descending: a write
    finds itself and every other write of its value, a read its candidate
    sources.  A read of [Init], or of a value never written, finds [[]].
    {!read_from} and {!Unit_view.index} both derive from it. *)

val is_differentiated : t -> bool
(** True when no two writes to the same variable store the same value.  The
    read-from relation of a differentiated history is uniquely determined,
    and the fast checkers require it. *)

type rf_error =
  | Dangling_read of Op.t
      (** A read returns a value never written to its variable: the history
          cannot be consistent under any criterion considered here. *)
  | Ambiguous_read of Op.t
      (** Several writes could be the read's source (the history is not
          differentiated), so the read-from relation is not determined. *)

val pp_rf_error : Format.formatter -> rf_error -> unit

val read_from : ?writers:int list array -> t -> (int option array, rf_error) result
(** [read_from h] infers the writes-into relation (paper §2): for each
    global id, [Some w] gives the global id of the write a read takes its
    value from, [None] for writes and for reads returning [Init].  The
    error names the first read, in global-id order, with no source or
    several.  [writers] is [h]'s {!writers} table when the caller has it. *)

val pp : Format.formatter -> t -> unit
(** Multi-line rendering, one process per line. *)

val to_string : t -> string

val parse : string -> (t, string) result
(** Parse the {!pp} format back into a history:

    {v
    p0: w0(x0)1  r0(x0)1  w0(x1)2
    p1: r1(x1)2
    v}

    The per-operation process annotation is optional and, when present,
    must match the line's process.  [⊥], [_] and [init] all denote the
    initial value.  Missing process lines yield empty local histories;
    blank lines and [#]-comments are skipped.  Round-trips with
    {!to_string}. *)
