(** Fixed-capacity bitsets over [0 .. n-1].

    Used for dense relation rows (transitive closure over operations) and for
    process/variable sets in share-graph analysis. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1].
    @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int

val copy : t -> t

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val cardinal : t -> int

val is_empty : t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src].
    @raise Invalid_argument on capacity mismatch. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] sets [dst := dst ∩ src]. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] sets [dst := dst \ src]. *)

val union : t -> t -> t
val inter : t -> t -> t

val equal : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is true iff [a ⊆ b]. *)

val disjoint : t -> t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate elements in increasing order; one step per word plus one per
    element. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list
(** Elements in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n elems] builds a set over [0 .. n-1]. *)

val to_raw_string : t -> string
(** The underlying bit words as a string; equal sets yield equal strings.
    Intended as a cheap hash-table key. *)

val pp : Format.formatter -> t -> unit
(** Renders as [{0, 3, 5}]. *)
