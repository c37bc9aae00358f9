(* The 64-bit state lives in 8 bytes read and written in place, not in a
   [mutable int64] field: a field store would box every update.  [mix64],
   [next] and [float] are inlined into the draws below, so [int], [bool],
   [coin] and [skip] allocate nothing even where the build compiles each
   module [-opaque] (no cross-module inlining).  The streams are plain
   SplitMix64, bit for bit: every seeded history depends on them, and
   [test_util] checks them against a boxed reference implementation. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  set64u g 0 s;
  g

let create seed = of_state (mix64 (Int64.of_int seed))

let copy g = Bytes.copy g

let[@inline] next g =
  let s = Int64.add (get64u g 0) golden_gamma in
  set64u g 0 s;
  mix64 s

let next_int64 g = next g

let skip g k =
  if k < 0 then invalid_arg "Rng.skip: negative count";
  set64u g 0 (Int64.add (get64u g 0) (Int64.mul (Int64.of_int k) golden_gamma))

let split g = of_state (mix64 (next g))

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias: retry when the draw falls in
     the truncated top interval, detected by overflow of r - v + (bound-1). *)
  let bound64 = Int64.of_int bound in
  let v = ref 0 and again = ref true in
  while !again do
    let r = Int64.shift_right_logical (next g) 1 in
    let x = Int64.rem r bound64 in
    v := Int64.to_int x;
    again := (Int64.add (Int64.sub r x) (Int64.sub bound64 1L) : int64) < 0L
  done;
  !v

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

let[@inline] float g bound =
  let r = Int64.shift_right_logical (next g) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let bool g = (Int64.logand (next g) 1L : int64) <> 0L

let coin g p = float g 1.0 < p

let exponential g mean =
  let u = float g 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let pick g a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int g (Array.length a))

let pick_list g l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Selection sampling (Knuth algorithm S): O(n), increasing output. *)
  let rec loop i remaining acc =
    if remaining = 0 then List.rev acc
    else if n - i <= remaining then loop (i + 1) (remaining - 1) (i :: acc)
    else if int g (n - i) < remaining then loop (i + 1) (remaining - 1) (i :: acc)
    else loop (i + 1) remaining acc
  in
  loop 0 k []
