(* Packed int-array words (63 usable bits each).  The bytes-backed
   representation this replaces paid a Char round-trip per 8 bits on every
   union/inter; relation-closure rows are the checker's hottest data, so the
   word ops below must stay branch-light and allocation-free. *)

type t = { n : int; words : int array }

let bits = 63 (* usable bits per OCaml int on 64-bit platforms *)

let words_for n = (n + bits - 1) / bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (words_for n) 0 }

let capacity t = t.n

let copy t = { n = t.n; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: index out of bounds"

let add t i =
  check t i;
  let w = i / bits and b = i mod bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w lor (1 lsl b))

let remove t i =
  check t i;
  let w = i / bits and b = i mod bits in
  Array.unsafe_set t.words w (Array.unsafe_get t.words w land lnot (1 lsl b))

let mem t i =
  check t i;
  let w = i / bits and b = i mod bits in
  Array.unsafe_get t.words w land (1 lsl b) <> 0

let popcount w =
  let rec go w acc = if w = 0 then acc else go (w land (w - 1)) (acc + 1) in
  go w 0

let cardinal t =
  let total = ref 0 in
  for i = 0 to Array.length t.words - 1 do
    total := !total + popcount (Array.unsafe_get t.words i)
  done;
  !total

let is_empty t =
  let rec scan i =
    i >= Array.length t.words || (Array.unsafe_get t.words i = 0 && scan (i + 1))
  in
  scan 0

let check_same a b =
  if a.n <> b.n then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i
      (Array.unsafe_get dst.words i lor Array.unsafe_get src.words i)
  done

let inter_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i
      (Array.unsafe_get dst.words i land Array.unsafe_get src.words i)
  done

let diff_into ~dst src =
  check_same dst src;
  for i = 0 to Array.length dst.words - 1 do
    Array.unsafe_set dst.words i
      (Array.unsafe_get dst.words i land lnot (Array.unsafe_get src.words i))
  done

let union a b =
  let r = copy a in
  union_into ~dst:r b;
  r

let inter a b =
  let r = copy a in
  inter_into ~dst:r b;
  r

let equal a b =
  a.n = b.n
  &&
  let rec scan i =
    i >= Array.length a.words
    || (Array.unsafe_get a.words i = Array.unsafe_get b.words i && scan (i + 1))
  in
  scan 0

let subset a b =
  check_same a b;
  let rec scan i =
    i >= Array.length a.words
    || Array.unsafe_get a.words i land lnot (Array.unsafe_get b.words i) = 0
       && scan (i + 1)
  in
  scan 0

let disjoint a b =
  check_same a b;
  let rec scan i =
    i >= Array.length a.words
    || Array.unsafe_get a.words i land Array.unsafe_get b.words i = 0
       && scan (i + 1)
  in
  scan 0

(* index of the single set bit of [b], a power of two below 2^32: de Bruijn
   multiply-and-lookup *)
let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let index32 b = Array.unsafe_get debruijn (((b * 0x077CB531) land 0xffffffff) lsr 27)

(* Lowest set bit first, one step per element: [w land (-w)] isolates it
   (bit 62 too, where the word is negative), and its index is looked up in
   whichever 32-bit half holds it. *)
let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let base = wi * bits in
    let w = ref (Array.unsafe_get t.words wi) in
    while !w <> 0 do
      let low = !w land (- !w) in
      let b =
        if low land 0xffffffff <> 0 then index32 low else 32 + index32 (low lsr 32)
      in
      f (base + b);
      w := !w lxor low
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n elems =
  let t = create n in
  List.iter (add t) elems;
  t

let to_raw_string t =
  (* 8 little-endian bytes per word; equal sets yield equal strings because
     words past [n] are never set. *)
  let buf = Bytes.create (8 * Array.length t.words) in
  for i = 0 to Array.length t.words - 1 do
    let w = Array.unsafe_get t.words i in
    for j = 0 to 7 do
      Bytes.unsafe_set buf ((8 * i) + j) (Char.unsafe_chr ((w lsr (8 * j)) land 0xff))
    done
  done;
  Bytes.unsafe_to_string buf

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (elements t)
