(* Tests for Repro_util: rng, pqueue, bitset, union_find, stats, table,
   graph, flow, record. *)

module Rng = Repro_util.Rng
module Pqueue = Repro_util.Pqueue
module Intheap = Repro_util.Intheap
module Eventq = Repro_util.Eventq
module Ringbuf = Repro_util.Ringbuf
module Bitset = Repro_util.Bitset
module Union_find = Repro_util.Union_find
module Stats = Repro_util.Stats
module Table = Repro_util.Table
module Graph = Repro_util.Graph
module Flow = Repro_util.Flow
module Record = Repro_util.Record
module Jsonout = Repro_util.Jsonout

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_different_seeds () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let different = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b)) then different := true
  done;
  check Alcotest.bool "streams differ" true !different

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  let b = Rng.copy a in
  let va = Rng.next_int64 a in
  let vb = Rng.next_int64 b in
  check Alcotest.int64 "copy continues the same stream" va vb

let test_rng_split_changes_parent () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let _child = Rng.split a in
  (* a advanced past b *)
  check Alcotest.bool "split advances parent" false
    (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b))

let test_rng_int_bounds =
  qcheck
    (QCheck.Test.make ~name:"rng_int_in_bounds" ~count:500
       QCheck.(pair small_int (int_range 1 1000))
       (fun (seed, bound) ->
         let g = Rng.create seed in
         let v = Rng.int g bound in
         v >= 0 && v < bound))

let test_rng_int_in_bounds =
  qcheck
    (QCheck.Test.make ~name:"rng_int_in_inclusive" ~count:500
       QCheck.(triple small_int (int_range (-50) 50) (int_range 0 100))
       (fun (seed, lo, span) ->
         let g = Rng.create seed in
         let v = Rng.int_in g lo (lo + span) in
         v >= lo && v <= lo + span))

let test_rng_int_rejects () =
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create 0) 0))

let test_rng_uniformity () =
  (* crude chi-square-ish sanity: each of 8 buckets within 3x of expected *)
  let g = Rng.create 123 in
  let buckets = Array.make 8 0 in
  let draws = 8000 in
  for _ = 1 to draws do
    let v = Rng.int g 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      if count < 700 || count > 1300 then
        Alcotest.failf "bucket %d has suspicious count %d" i count)
    buckets

let test_rng_shuffle_permutation () =
  let g = Rng.create 99 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement =
  qcheck
    (QCheck.Test.make ~name:"sample_without_replacement" ~count:200
       QCheck.(triple small_int (int_range 0 20) (int_range 0 30))
       (fun (seed, k, extra) ->
         let n = k + extra in
         let g = Rng.create seed in
         let sample = Rng.sample_without_replacement g k n in
         List.length sample = k
         && List.sort_uniq compare sample = sample
         && List.for_all (fun v -> v >= 0 && v < n) sample))

let test_rng_coin_extremes () =
  let g = Rng.create 5 in
  for _ = 1 to 50 do
    check Alcotest.bool "p=0 never" false (Rng.coin g 0.0)
  done;
  for _ = 1 to 50 do
    check Alcotest.bool "p=1 always" true (Rng.coin g 1.0)
  done

(* Reference model: the boxed-field SplitMix64 the in-place generator
   replaced, kept verbatim.  Every draw of {!Rng} must match it bit for bit,
   or every seeded history in the repository would move. *)
module Oracle = struct
  type t = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))

  let create seed = { state = mix64 (Int64.of_int seed) }

  let copy g = { state = g.state }

  let next_int64 g =
    g.state <- Int64.add g.state golden_gamma;
    mix64 g.state

  let split g =
    let seed = next_int64 g in
    { state = mix64 seed }

  let int g bound =
    let bound64 = Int64.of_int bound in
    let rec draw () =
      let r = Int64.shift_right_logical (next_int64 g) 1 in
      let v = Int64.rem r bound64 in
      if Int64.compare (Int64.add (Int64.sub r v) (Int64.sub bound64 1L)) 0L < 0
      then draw ()
      else Int64.to_int v
    in
    draw ()

  let int_in g lo hi = lo + int g (hi - lo + 1)

  let float g bound =
    let r = Int64.shift_right_logical (next_int64 g) 11 in
    Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

  let bool g = Int64.compare (Int64.logand (next_int64 g) 1L) 0L <> 0

  let coin g p = float g 1.0 < p
end

type rng_call =
  | Next
  | Int of int
  | Int_in of int * int
  | Float of float
  | Bool
  | Coin of float
  | Skip of int
  | Copy
  | Split

let show_call = function
  | Next -> "next"
  | Int b -> Printf.sprintf "int %d" b
  | Int_in (lo, hi) -> Printf.sprintf "int_in %d %d" lo hi
  | Float b -> Printf.sprintf "float %h" b
  | Bool -> "bool"
  | Coin p -> Printf.sprintf "coin %h" p
  | Skip k -> Printf.sprintf "skip %d" k
  | Copy -> "copy"
  | Split -> "split"

let gen_call =
  let open QCheck.Gen in
  frequency
    [
      (2, return Next);
      (3, map (fun b -> Int b) (int_range 1 1000));
      (* near max_int most draws fall in the truncated top interval, so
         the rejection retry runs often *)
      (3, map (fun b -> Int b) (int_range (max_int / 3 * 2) max_int));
      ( 2,
        map2
          (fun lo span -> Int_in (lo, lo + span))
          (int_range (-1000) 1000)
          (oneof [ int_range 0 1000; int_range 0 (max_int - 2000) ]) );
      (2, map (fun b -> Float b) (float_bound_inclusive 1e6));
      (2, return Bool);
      (2, map (fun p -> Coin p) (float_bound_inclusive 1.0));
      (2, map (fun k -> Skip k) (int_range 0 40));
      (1, return Copy);
      (1, return Split);
    ]

(* Run one call on both generators; [Copy] and [Split] move on to the
   derived generator after checking that the original still agrees. *)
let step_call (g, o) call =
  let same = ref true in
  let agree a b = if a <> b then same := false in
  let pair =
    match call with
    | Next ->
        agree (Rng.next_int64 g) (Oracle.next_int64 o);
        (g, o)
    | Int b ->
        agree (Rng.int g b) (Oracle.int o b);
        (g, o)
    | Int_in (lo, hi) ->
        agree (Rng.int_in g lo hi) (Oracle.int_in o lo hi);
        (g, o)
    | Float b ->
        agree (Int64.bits_of_float (Rng.float g b)) (Int64.bits_of_float (Oracle.float o b));
        (g, o)
    | Bool ->
        agree (Rng.bool g) (Oracle.bool o);
        (g, o)
    | Coin p ->
        agree (Rng.coin g p) (Oracle.coin o p);
        (g, o)
    | Skip k ->
        Rng.skip g k;
        for _ = 1 to k do
          ignore (Oracle.next_int64 o : int64)
        done;
        (g, o)
    | Copy ->
        let g' = Rng.copy g and o' = Oracle.copy o in
        agree (Rng.next_int64 g) (Oracle.next_int64 o);
        (g', o')
    | Split ->
        let g' = Rng.split g and o' = Oracle.split o in
        agree (Rng.next_int64 g) (Oracle.next_int64 o);
        (g', o')
  in
  (pair, !same)

let test_rng_matches_oracle =
  qcheck
    (QCheck.Test.make ~name:"rng_matches_boxed_splitmix64" ~count:500
       (QCheck.make
          ~print:(fun (seed, calls) ->
            Printf.sprintf "seed %d: %s" seed
              (String.concat "; " (List.map show_call calls)))
          QCheck.Gen.(pair int (list_size (int_range 1 60) gen_call)))
       (fun (seed, calls) ->
         let rec go pair = function
           | [] ->
               let g, o = pair in
               Rng.next_int64 g = Oracle.next_int64 o
           | call :: rest ->
               let pair, same = step_call pair call in
               same && go pair rest
         in
         go (Rng.create seed, Oracle.create seed) calls))

let test_rng_skip_rejects () =
  Alcotest.check_raises "negative" (Invalid_argument "Rng.skip: negative count")
    (fun () -> Rng.skip (Rng.create 0) (-1))

(* Draws run once per simulated message: none may allocate. *)
let words_per_draw f =
  let iters = 100_000 in
  for _ = 1 to 100 do f () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do f () done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_rng_draws_allocate_nothing () =
  let g = Rng.create 17 in
  let near_max = max_int - 12345 in
  List.iter
    (fun (name, f) ->
      let w = words_per_draw f in
      if w >= 0.01 then Alcotest.failf "Rng.%s allocates %.2f words/draw" name w)
    [
      ("int", fun () -> ignore (Rng.int g 1000 : int));
      ("int near max_int", fun () -> ignore (Rng.int g near_max : int));
      ("int_in", fun () -> ignore (Rng.int_in g 1 5 : int));
      ("coin", fun () -> ignore (Rng.coin g 0.3 : bool));
      ("bool", fun () -> ignore (Rng.bool g : bool));
      ("skip", fun () -> Rng.skip g 2);
    ]

(* --- pqueue -------------------------------------------------------------- *)

let test_pqueue_basic () =
  let q = Pqueue.create ~cmp:compare () in
  check Alcotest.bool "empty" true (Pqueue.is_empty q);
  Pqueue.push q 3 "c";
  Pqueue.push q 1 "a";
  Pqueue.push q 2 "b";
  check Alcotest.int "length" 3 (Pqueue.length q);
  check Alcotest.(option (pair int string)) "peek" (Some (1, "a")) (Pqueue.peek q);
  check Alcotest.(option (pair int string)) "pop1" (Some (1, "a")) (Pqueue.pop q);
  check Alcotest.(option (pair int string)) "pop2" (Some (2, "b")) (Pqueue.pop q);
  check Alcotest.(option (pair int string)) "pop3" (Some (3, "c")) (Pqueue.pop q);
  check Alcotest.(option (pair int string)) "pop empty" None (Pqueue.pop q)

let test_pqueue_pop_exn_empty () =
  let q : (int, unit) Pqueue.t = Pqueue.create ~cmp:compare () in
  Alcotest.check_raises "pop_exn" (Invalid_argument "Pqueue.pop_exn: empty queue")
    (fun () -> ignore (Pqueue.pop_exn q))

let test_pqueue_sorts =
  qcheck
    (QCheck.Test.make ~name:"pqueue_drains_sorted" ~count:300
       QCheck.(list int)
       (fun keys ->
         let q = Pqueue.create ~cmp:compare () in
         List.iter (fun k -> Pqueue.push q k k) keys;
         let rec drain acc =
           match Pqueue.pop q with None -> List.rev acc | Some (k, _) -> drain (k :: acc)
         in
         drain [] = List.sort compare keys))

let test_pqueue_to_sorted_list_preserves () =
  let q = Pqueue.create ~cmp:compare () in
  List.iter (fun k -> Pqueue.push q k k) [ 5; 1; 4; 2 ];
  let listed = Pqueue.to_sorted_list q in
  check Alcotest.int "queue untouched" 4 (Pqueue.length q);
  check
    Alcotest.(list (pair int int))
    "sorted"
    [ (1, 1); (2, 2); (4, 4); (5, 5) ]
    listed

let test_pqueue_stability_via_composite_keys () =
  (* the scheduler relies on (time, seq) keys for deterministic FIFO ties *)
  let q = Pqueue.create ~cmp:compare () in
  Pqueue.push q (5, 0) "first";
  Pqueue.push q (5, 1) "second";
  Pqueue.push q (5, 2) "third";
  check Alcotest.(option (pair (pair int int) string)) "tie order" (Some ((5, 0), "first"))
    (Pqueue.pop q);
  check Alcotest.(option (pair (pair int int) string)) "tie order" (Some ((5, 1), "second"))
    (Pqueue.pop q)

let test_pqueue_clear () =
  let q = Pqueue.create ~cmp:compare () in
  Pqueue.push q 1 ();
  Pqueue.clear q;
  check Alcotest.bool "cleared" true (Pqueue.is_empty q)

(* Neither a drained queue nor a cleared one keeps a hold on its
   bindings: only the first binding pushed stays, as the filler of
   vacated slots.  Keys are boxed too, as Live's timer keys are. *)
let test_pqueue_retains_no_popped_value () =
  let n = 100 in
  List.iter
    (fun (name, empty) ->
      let q = Pqueue.create ~cmp:compare () in
      let keys = Weak.create n and vals = Weak.create n in
      for i = 0 to n - 1 do
        let key = ((i * 37) mod n, i) and v = ref i in
        Weak.set keys i (Some key);
        Weak.set vals i (Some v);
        Pqueue.push q key v
      done;
      empty q;
      Gc.full_major ();
      let live = ref 0 in
      for i = 0 to n - 1 do
        if Weak.check keys i || Weak.check vals i then incr live
      done;
      if !live > 1 then Alcotest.failf "%s: %d of %d bindings still reachable" name !live n;
      (* the queue itself stays live across the collection *)
      Pqueue.push q (0, 0) (ref 0);
      check Alcotest.int (name ^ ": queue still in use") 1 (Pqueue.length q))
    [
      ( "drained",
        fun q ->
          while not (Pqueue.is_empty q) do
            ignore (Pqueue.pop_exn q : (int * int) * int ref)
          done );
      ("cleared", Pqueue.clear);
    ]

let test_pqueue_growth_and_clear () =
  let q = Pqueue.create ~cmp:compare () in
  for i = 49 downto 0 do
    Pqueue.push q i i
  done;
  check Alcotest.int "length after growth" 50 (Pqueue.length q);
  check
    Alcotest.(list (pair int int))
    "sorted across growth"
    (List.init 50 (fun i -> (i, i)))
    (Pqueue.to_sorted_list q);
  ignore (Pqueue.pop q);
  ignore (Pqueue.pop q);
  (* only live bindings are listed, not stale slots left by pops *)
  check Alcotest.int "after pops" 48 (List.length (Pqueue.to_sorted_list q));
  Pqueue.clear q;
  check Alcotest.(list (pair int int)) "cleared lists empty" []
    (Pqueue.to_sorted_list q);
  Pqueue.push q 9 9;
  check Alcotest.(option (pair int int)) "usable after clear" (Some (9, 9))
    (Pqueue.pop q)

(* --- eventq -------------------------------------------------------------- *)

(* The queue's ring covers 64 ticks from its window base. *)
let eventq_slots = 64

type eventq_op =
  | Push of int  (** at the clock plus this delay *)
  | Pop
  | Peek  (** [min_time], then a push at delay 0 *)
  | Until of int
      (** pop every event at or before the clock plus this, move the clock
          there as [Net.run_until] does, then push at delay 0 *)

let eventq_op_print = function
  | Push d -> Printf.sprintf "Push %d" d
  | Pop -> "Pop"
  | Peek -> "Peek"
  | Until d -> Printf.sprintf "Until %d" d

(* Delays inside the window, at its edge, far past it and, when [huge],
   at or past 2^31 ticks, where far keys stop packing. *)
let gen_eventq_ops =
  let open QCheck.Gen in
  let r = eventq_slots in
  let op huge =
    let delay =
      frequency
        ([ (3, return 0);
           (6, int_range 1 (r - 1));
           (3, oneofl [ r - 1; r; r + 1 ]);
           (3, int_range (2 * r) 10_000) ]
        @ if huge then [ (1, map (fun k -> (1 lsl 31) + k) (int_range (-2) 3)) ] else [])
    in
    frequency
      [ (6, map (fun d -> Push d) delay);
        (4, return Pop);
        (1, return Peek);
        (1, map (fun d -> Until d) (int_range 0 (2 * r))) ]
  in
  bool >>= fun huge -> list_size (int_range 1 300) (op huge)

(* Drive the queue the way [Net] does, pushing at or after a clock that
   follows the popped times, and replay the same operations on a list
   sorted by (time, push index).  Every pop, [min_time] and length must
   agree, and the window's base must never pass the clock. *)
let test_eventq_matches_reference =
  qcheck
    (QCheck.Test.make ~name:"eventq_pops_in_time_then_push_order" ~count:500
       (QCheck.make ~print:QCheck.Print.(list eventq_op_print) gen_eventq_ops)
       (fun ops ->
         let q = Eventq.create () in
         let model = ref [] and clock = ref 0 and pushed = ref 0 in
         let push delay =
           let time = !clock + delay in
           Eventq.push q time !pushed;
           model := List.merge compare !model [ (time, !pushed) ];
           incr pushed
         in
         let pop () =
           match !model with
           | [] -> Alcotest.fail "model empty"
           | (time, id) :: rest ->
               model := rest;
               let got = Eventq.pop q in
               if got <> id || Eventq.time q <> time then
                 Alcotest.failf "popped %d at %d, expected %d at %d" got
                   (Eventq.time q) id time;
               clock := Stdlib.max !clock time
         in
         let peek () =
           match !model with
           | [] -> ()
           | (time, _) :: _ ->
               if Eventq.min_time q <> time then
                 Alcotest.failf "min_time %d, expected %d" (Eventq.min_time q) time
         in
         List.iter
           (fun op ->
             (match op with
             | Push d -> push d
             | Pop -> if !model <> [] then pop ()
             | Peek ->
                 peek ();
                 push 0
             | Until d ->
                 let deadline = !clock + d in
                 while
                   match !model with (time, _) :: _ -> time <= deadline | [] -> false
                 do
                   peek ();
                   pop ()
                 done;
                 clock := Stdlib.max !clock deadline;
                 push 0);
             if Eventq.time q > !clock then
               Alcotest.failf "window base %d past the clock %d" (Eventq.time q) !clock;
             if Eventq.length q <> List.length !model then
               Alcotest.failf "length %d, expected %d" (Eventq.length q)
                 (List.length !model))
           ops;
         while !model <> [] do
           peek ();
           pop ()
         done;
         Eventq.is_empty q))

let test_eventq_bounds () =
  let q = Eventq.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Eventq.pop: empty queue")
    (fun () -> ignore (Eventq.pop q));
  Alcotest.check_raises "min_time empty"
    (Invalid_argument "Eventq.min_time: empty queue") (fun () ->
      ignore (Eventq.min_time q));
  Eventq.push q 5 "a";
  Eventq.push q max_int "z";
  check Alcotest.string "near first" "a" (Eventq.pop q);
  Alcotest.check_raises "push before the window"
    (Invalid_argument "Eventq.push: time before the window") (fun () ->
      Eventq.push q 4 "b");
  check Alcotest.int "far end of time" max_int (Eventq.min_time q);
  check Alcotest.string "far last" "z" (Eventq.pop q);
  check Alcotest.int "window at the far event" max_int (Eventq.time q);
  check Alcotest.bool "drained" true (Eventq.is_empty q)

(* A popped ring entry keeps no hold on its value: the pool keeps only the
   first value pushed, as its filler. *)
let test_eventq_retains_no_popped_value () =
  let q = Eventq.create () in
  let n = 100 in
  let kept = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set kept i (Some v);
    Eventq.push q ((i * 37) mod eventq_slots) v
  done;
  while not (Eventq.is_empty q) do
    ignore (Eventq.pop q : int ref)
  done;
  Gc.full_major ();
  let retained = ref [] in
  for i = n - 1 downto 1 do
    if Weak.check kept i then retained := i :: !retained
  done;
  check Alcotest.(list int) "popped values still reachable" [] !retained;
  (* the queue itself stays live across the collection *)
  Eventq.push q (Eventq.time q) (ref 0);
  check Alcotest.int "queue still in use" 1 (Eventq.length q)

(* --- intheap ------------------------------------------------------------- *)

let test_intheap_basic () =
  let h = Intheap.create () in
  check Alcotest.bool "empty" true (Intheap.is_empty h);
  check Alcotest.(option (pair int string)) "peek empty" None (Intheap.peek h);
  check Alcotest.(option (pair int string)) "pop empty" None (Intheap.pop h);
  Intheap.push h 3 "c";
  Intheap.push h 1 "a";
  Intheap.push h 2 "b";
  check Alcotest.int "length" 3 (Intheap.length h);
  check Alcotest.int "min_key" 1 (Intheap.min_key h);
  check Alcotest.(option (pair int string)) "peek" (Some (1, "a")) (Intheap.peek h);
  check Alcotest.string "pop1" "a" (Intheap.pop_min h);
  check Alcotest.(option (pair int string)) "pop2" (Some (2, "b")) (Intheap.pop h);
  check Alcotest.string "pop3" "c" (Intheap.pop_min h);
  check Alcotest.bool "drained" true (Intheap.is_empty h)

let test_intheap_growth_and_clear () =
  let h = Intheap.create () in
  for i = 99 downto 0 do
    Intheap.push h i i
  done;
  check Alcotest.int "length after growth" 100 (Intheap.length h);
  check
    Alcotest.(list (pair int int))
    "to_sorted_list"
    (List.init 100 (fun i -> (i, i)))
    (Intheap.to_sorted_list h);
  check Alcotest.int "to_sorted_list preserves" 100 (Intheap.length h);
  for i = 0 to 99 do
    check Alcotest.int "min_key in order" i (Intheap.min_key h);
    check Alcotest.int "pop_min in order" i (Intheap.pop_min h)
  done;
  Alcotest.check_raises "min_key empty"
    (Invalid_argument "Intheap.min_key: empty heap") (fun () ->
      ignore (Intheap.min_key h));
  Alcotest.check_raises "pop_min empty"
    (Invalid_argument "Intheap.pop_min: empty heap") (fun () ->
      ignore (Intheap.pop_min h));
  Intheap.push h 7 7;
  Intheap.push h 4 4;
  Intheap.clear h;
  check Alcotest.bool "cleared" true (Intheap.is_empty h);
  Intheap.push h 3 30;
  Intheap.push h 1 10;
  check Alcotest.int "usable after clear" 10 (Intheap.pop_min h)

(* Neither a drained heap nor a cleared one keeps a hold on its values:
   only the first value pushed stays, as the filler of vacated slots. *)
let test_intheap_retains_no_popped_value () =
  let n = 100 in
  List.iter
    (fun (name, empty) ->
      let h = Intheap.create () in
      let kept = Weak.create n in
      for i = 0 to n - 1 do
        let v = ref i in
        Weak.set kept i (Some v);
        Intheap.push h ((i * 37) mod n) v
      done;
      empty h;
      Gc.full_major ();
      let live = ref 0 in
      for i = 0 to n - 1 do
        if Weak.check kept i then incr live
      done;
      if !live > 1 then Alcotest.failf "%s: %d of %d values still reachable" name !live n;
      (* the heap itself stays live across the collection *)
      Intheap.push h 0 (ref 0);
      check Alcotest.int (name ^ ": heap still in use") 1 (Intheap.length h))
    [
      ( "drained",
        fun h ->
          while not (Intheap.is_empty h) do
            ignore (Intheap.pop_min h : int ref)
          done );
      ("cleared", Intheap.clear);
    ]

(* Growing past the minor heap's block size must not force a minor
   collection, even though every pushed value is young (the simulator
   pushes freshly built messages): the heap's contents survive doubling
   and come out in key order. *)
let test_intheap_growth_forces_no_minor_gc () =
  let h = Intheap.create () in
  let n = 4096 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for i = 0 to n - 1 do
    let k = (i * 7919) mod n in
    Intheap.push h k (ref k)
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  check Alcotest.int "minor collections while growing" before after;
  for i = 0 to n - 1 do
    check Alcotest.int "key order" i (Intheap.min_key h);
    check Alcotest.int "value follows key" i !(Intheap.pop_min h)
  done

(* The scheduler packs (time, seq) into (time lsl 31) lor seq; popping the
   packed keys from an Intheap must reproduce the order the generic Pqueue
   gives the unpacked tuples, including at the top of the packable time
   range where the Net engine switches to widened keys. *)
let test_intheap_matches_pqueue =
  qcheck
    (QCheck.Test.make ~name:"intheap_matches_tuple_pqueue" ~count:300
       QCheck.(list (pair bool (int_bound ((1 lsl 31) - 1))))
       (fun draws ->
         let times =
           List.map
             (fun (boundary, raw) ->
               if boundary then ((1 lsl 31) - 1) - (raw land 0x3) else raw)
             draws
         in
         let h = Intheap.create () in
         let q = Pqueue.create ~cmp:compare () in
         List.iteri
           (fun seq time ->
             Intheap.push h ((time lsl 31) lor seq) seq;
             Pqueue.push q (time, seq) seq)
           times;
         let rec drain_h acc =
           match Intheap.pop h with
           | None -> List.rev acc
           | Some (_, v) -> drain_h (v :: acc)
         in
         let rec drain_q acc =
           match Pqueue.pop q with
           | None -> List.rev acc
           | Some (_, v) -> drain_q (v :: acc)
         in
         drain_h [] = drain_q []))

(* --- ringbuf ------------------------------------------------------------- *)

let test_ringbuf_fifo_growth () =
  let r = Ringbuf.create () in
  check Alcotest.bool "empty" true (Ringbuf.is_empty r);
  check Alcotest.(option int) "peek empty" None (Ringbuf.peek_front r);
  check Alcotest.(option int) "pop empty" None (Ringbuf.pop_front r);
  (* interleave pushes and pops so the window wraps across a grow *)
  for i = 0 to 4 do
    Ringbuf.push_back r i
  done;
  for i = 0 to 2 do
    check Alcotest.(option int) "fifo" (Some i) (Ringbuf.pop_front r)
  done;
  for i = 5 to 24 do
    Ringbuf.push_back r i
  done;
  check Alcotest.int "length" 22 (Ringbuf.length r);
  check Alcotest.(option int) "peek" (Some 3) (Ringbuf.peek_front r);
  check
    Alcotest.(list int)
    "order across wrap and growth"
    (List.init 22 (fun i -> i + 3))
    (Ringbuf.to_list r);
  Ringbuf.clear r;
  check Alcotest.bool "cleared" true (Ringbuf.is_empty r);
  Ringbuf.push_back r 99;
  check Alcotest.(option int) "usable after clear" (Some 99) (Ringbuf.pop_front r)

(* --- bitset -------------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bitset.create 70 in
  check Alcotest.bool "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 69;
  Bitset.add s 8;
  check Alcotest.bool "mem 0" true (Bitset.mem s 0);
  check Alcotest.bool "mem 69" true (Bitset.mem s 69);
  check Alcotest.bool "mem 1" false (Bitset.mem s 1);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 8;
  check Alcotest.bool "removed" false (Bitset.mem s 8);
  check Alcotest.(list int) "elements" [ 0; 69 ] (Bitset.elements s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      Bitset.add s 10)

let test_bitset_set_ops =
  qcheck
    (QCheck.Test.make ~name:"bitset_set_algebra" ~count:300
       QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
       (fun (xs, ys) ->
         let module IS = Set.Make (Int) in
         let sa = IS.of_list xs and sb = IS.of_list ys in
         let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
         Bitset.elements (Bitset.union a b) = IS.elements (IS.union sa sb)
         && Bitset.elements (Bitset.inter a b) = IS.elements (IS.inter sa sb)
         && Bitset.subset a b = IS.subset sa sb
         && Bitset.disjoint a b = IS.disjoint sa sb
         && Bitset.cardinal a = IS.cardinal sa))

let test_bitset_diff () =
  let a = Bitset.of_list 16 [ 1; 2; 3; 4 ] in
  let b = Bitset.of_list 16 [ 2; 4; 8 ] in
  Bitset.diff_into ~dst:a b;
  check Alcotest.(list int) "diff" [ 1; 3 ] (Bitset.elements a)

let test_bitset_copy_independent () =
  let a = Bitset.of_list 8 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  check Alcotest.bool "original untouched" false (Bitset.mem a 2)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 9 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> Bitset.union_into ~dst:a b)

(* --- union find ---------------------------------------------------------- *)

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  check Alcotest.int "classes" 6 (Union_find.n_classes uf);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Union_find.union uf 1 2;
  check Alcotest.bool "same 0 3" true (Union_find.same uf 0 3);
  check Alcotest.bool "not same 0 4" false (Union_find.same uf 0 4);
  check Alcotest.int "classes after" 3 (Union_find.n_classes uf);
  check
    Alcotest.(list (list int))
    "partition"
    [ [ 0; 1; 2; 3 ]; [ 4 ]; [ 5 ] ]
    (Union_find.classes uf)

let test_union_find_idempotent () =
  let uf = Union_find.create 3 in
  Union_find.union uf 0 1;
  Union_find.union uf 0 1;
  Union_find.union uf 1 0;
  check Alcotest.int "classes" 2 (Union_find.n_classes uf)

(* --- stats --------------------------------------------------------------- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Stats.mean s);
  check (Alcotest.float 1e-9) "total" 10.0 (Stats.total s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Stats.max s);
  check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0) (Stats.variance s);
  check (Alcotest.float 1e-9) "median" 2.5 (Stats.percentile s 50.0)

let test_stats_empty () =
  let s = Stats.create () in
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.min: empty accumulator")
    (fun () -> ignore (Stats.min s))

let test_stats_percentile_extremes () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 5.0; 1.0; 3.0 ];
  check (Alcotest.float 1e-9) "p0" 1.0 (Stats.percentile s 0.0);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile s 100.0)

let test_stats_merge =
  qcheck
    (QCheck.Test.make ~name:"stats_merge_matches_concat" ~count:200
       QCheck.(pair (list (float_bound_exclusive 100.0)) (list (float_bound_exclusive 100.0)))
       (fun (xs, ys) ->
         let build values =
           let s = Stats.create () in
           List.iter (Stats.add s) values;
           s
         in
         let merged = Stats.merge (build xs) (build ys) in
         let direct = build (xs @ ys) in
         Stats.count merged = Stats.count direct
         && abs_float (Stats.mean merged -. Stats.mean direct) < 1e-9))

let test_stats_welford_matches_naive () =
  let s = Stats.create () in
  let values = List.init 100 (fun i -> float_of_int ((i * 37 mod 19) - 9)) in
  List.iter (Stats.add s) values;
  let n = float_of_int (List.length values) in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 values /. (n -. 1.0)
  in
  check (Alcotest.float 1e-6) "variance" var (Stats.variance s)

(* --- table --------------------------------------------------------------- *)

let test_table_render () =
  let out =
    Table.render ~header:[ "name"; "n" ] ~rows:[ [ "a"; "1" ]; [ "long"; "22" ] ] ()
  in
  let lines = String.split_on_char '\n' out in
  check Alcotest.int "line count (incl. trailing)" 5 (List.length lines);
  check Alcotest.string "header" "name  n" (List.nth lines 0);
  check Alcotest.string "rule" "----  --" (List.nth lines 1);
  check Alcotest.string "row" "a     1" (List.nth lines 2)

let test_table_right_align () =
  let out =
    Table.render ~aligns:[ Table.Left; Table.Right ] ~header:[ "k"; "v" ]
      ~rows:[ [ "a"; "1" ]; [ "b"; "22" ] ]
      ()
  in
  check Alcotest.bool "right aligned" true
    (String.length out > 0
    &&
    let lines = String.split_on_char '\n' out in
    List.nth lines 2 = "a   1")

let test_table_ragged_rows () =
  let out = Table.render ~header:[ "a"; "b"; "c" ] ~rows:[ [ "1" ] ] () in
  check Alcotest.bool "no exception, padded" true (String.length out > 0)

let test_fmt_helpers () =
  check Alcotest.string "float" "3.14" (Table.fmt_float ~decimals:2 3.14159);
  check Alcotest.string "ratio" "2.00x" (Table.fmt_ratio 4.0 2.0);
  check Alcotest.string "ratio inf" "inf" (Table.fmt_ratio 4.0 0.0);
  check Alcotest.string "bytes small" "512 B" (Table.fmt_bytes 512);
  check Alcotest.string "bytes kib" "4.0 KiB" (Table.fmt_bytes 4096)

(* --- graph --------------------------------------------------------------- *)

let test_graph_basic () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 1;
  (* duplicate ignored *)
  check Alcotest.int "edges" 2 (Graph.n_edges g);
  check Alcotest.bool "mem" true (Graph.mem_edge g 0 1);
  check Alcotest.bool "not mem" false (Graph.mem_edge g 1 0);
  check Alcotest.(list int) "succ" [ 1 ] (Graph.succ g 0);
  Graph.add_edge g 0 3;
  let seen = ref [] in
  Graph.iter_succ g 0 (fun v -> seen := v :: !seen);
  check Alcotest.(list int) "iter_succ visits succ" (Graph.succ g 0)
    (List.sort compare !seen)

let test_graph_closure () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 2 3;
  let c = Graph.transitive_closure g in
  check Alcotest.bool "0->3" true (Graph.mem_edge c 0 3);
  check Alcotest.bool "3->0 absent" false (Graph.mem_edge c 3 0);
  check Alcotest.bool "0->0 absent" false (Graph.mem_edge c 0 0)

let test_graph_cycle_detection () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  check Alcotest.bool "acyclic" true (Graph.is_acyclic g);
  Graph.add_edge g 2 0;
  check Alcotest.bool "cyclic" false (Graph.is_acyclic g);
  check Alcotest.(option (list int)) "no topo order" None (Graph.topological_sort g)

let test_graph_toposort_deterministic () =
  let g = Graph.create 5 in
  Graph.add_edge g 4 2;
  Graph.add_edge g 3 2;
  Graph.add_edge g 2 0;
  check
    Alcotest.(option (list int))
    "smallest-first order"
    (Some [ 1; 3; 4; 2; 0 ])
    (Graph.topological_sort g)

let test_graph_transitive_reduction () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 2;
  (* redundant *)
  check
    Alcotest.(list (pair int int))
    "reduction drops 0->2"
    [ (0, 1); (1, 2) ]
    (Graph.transitive_reduction_edges g)

let test_graph_simple_paths () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 3;
  Graph.add_edge g 0 2;
  Graph.add_edge g 2 3;
  let paths = Graph.simple_paths g ~src:0 ~dst:3 in
  check Alcotest.int "two paths" 2 (List.length paths);
  check Alcotest.bool "both end at 3" true
    (List.for_all (fun p -> List.nth p (List.length p - 1) = 3) paths)

let test_graph_simple_paths_cycle_self () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  let paths = Graph.simple_paths g ~src:0 ~dst:0 in
  check Alcotest.(list (list int)) "cycle back to self" [ [ 0; 1; 0 ] ] paths

let test_graph_components () =
  let g = Graph.create 5 in
  Graph.add_undirected_edge g 0 1;
  Graph.add_undirected_edge g 2 3;
  check
    Alcotest.(list (list int))
    "components"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (Graph.components g)

let test_graph_closure_matches_paths =
  qcheck
    (QCheck.Test.make ~name:"closure_agrees_with_has_path" ~count:100
       QCheck.(list (pair (int_bound 7) (int_bound 7)))
       (fun edges ->
         let g = Graph.create 8 in
         List.iter (fun (u, v) -> Graph.add_edge g u v) edges;
         let c = Graph.transitive_closure g in
         List.for_all
           (fun u ->
             List.for_all
               (fun v -> Graph.mem_edge c u v = Graph.has_path g u v)
               (List.init 8 Fun.id))
           (List.init 8 Fun.id)))

(* Closure at scale, against a boolean-matrix Warshall: up to 150 vertices,
   so successor rows span three 63-bit words.  An acyclic graph only has
   edges forward in a random vertex ranking; a cyclic one may have any, so
   both of [transitive_closure]'s paths run. *)
let random_graph ~acyclic n seed =
  let rng = Random.State.make [| seed |] in
  let rank = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = rank.(i) in
    rank.(i) <- rank.(j);
    rank.(j) <- t
  done;
  let g = Graph.create n in
  for _ = 1 to Random.State.int rng ((3 * n) + 1) do
    let u = Random.State.int rng n and v = Random.State.int rng n in
    if (not acyclic) || rank.(u) < rank.(v) then Graph.add_edge g u v
  done;
  g

let warshall g =
  let n = Graph.n_vertices g in
  let m = Array.init n (fun u -> Array.init n (fun v -> Graph.mem_edge g u v)) in
  for via = 0 to n - 1 do
    for u = 0 to n - 1 do
      if m.(u).(via) then
        for v = 0 to n - 1 do
          if m.(via).(v) then m.(u).(v) <- true
        done
    done
  done;
  m

let test_graph_closure_at_scale =
  qcheck
    (QCheck.Test.make ~name:"closure_matches_warshall_up_to_150_vertices" ~count:150
       QCheck.(triple (int_range 1 150) bool small_int)
       (fun (n, acyclic, seed) ->
         let g = random_graph ~acyclic n seed in
         let reference = warshall g in
         let c = Graph.transitive_closure g in
         let vertices = List.init n Fun.id in
         let rows_agree =
           List.for_all
             (fun u ->
               List.for_all (fun v -> Graph.mem_edge c u v = reference.(u).(v)) vertices
               (* ascending, since the expected list is *)
               && Graph.succ c u = List.filter (fun v -> reference.(u).(v)) vertices)
             vertices
         in
         let edge_kept = List.find_opt (fun u -> Graph.succ c u <> []) vertices in
         let edge_missing =
           List.concat_map (fun u -> List.map (fun v -> (u, v)) vertices) vertices
           |> List.find_opt (fun (u, v) -> not reference.(u).(v))
         in
         let base_closed = Graph.is_closed g in
         rows_agree && Graph.is_closed c
         && Graph.is_closed (Graph.copy c)
         (* repeating an edge changes nothing, on the base as on the closure *)
         && (match edge_kept with
            | None -> true
            | Some u ->
                let v = List.hd (Graph.succ c u) in
                Graph.add_edge c u v;
                if Graph.mem_edge g u v then Graph.add_edge g u v;
                Graph.is_closed c && Graph.is_closed g = base_closed)
         (* a new edge clears the flag, and a copy keeps it cleared *)
         && match edge_missing with
            | None -> true
            | Some (u, v) ->
                Graph.add_edge c u v;
                (not (Graph.is_closed c)) && not (Graph.is_closed (Graph.copy c))))

(* [iter] extracts the lowest set bit word by word: compare it with a
   per-bit [mem] scan, with the bits either side of each word boundary
   (62/63, 125/126) set at random and densities from empty to full. *)
let test_bitset_iter_matches_scan =
  qcheck
    (QCheck.Test.make ~name:"bitset_iter_matches_a_mem_scan" ~count:300
       QCheck.(pair (int_range 1 200) small_int)
       (fun (n, seed) ->
         let rng = Random.State.make [| seed |] in
         let s = Bitset.create n in
         List.iter
           (fun i -> if i < n && Random.State.bool rng then Bitset.add s i)
           [ 0; 62; 63; 125; 126; n - 1 ];
         let density = Random.State.int rng 4 in
         for i = 0 to n - 1 do
           if density = 3 || (density > 0 && Random.State.int rng (8 / density) = 0) then
             Bitset.add s i
         done;
         let scan = List.filter (Bitset.mem s) (List.init n Fun.id) in
         let seen = ref [] in
         Bitset.iter (fun i -> seen := i :: !seen) s;
         List.rev !seen = scan && Bitset.elements s = scan))

let test_graph_union_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Graph.union: size mismatch")
    (fun () -> ignore (Graph.union (Graph.create 2) (Graph.create 3)))

let test_graph_reduction_cyclic () =
  let g = Graph.create 2 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 0;
  Alcotest.check_raises "cyclic"
    (Invalid_argument "Graph.transitive_reduction_edges: cyclic") (fun () ->
      ignore (Graph.transitive_reduction_edges g))

let test_bitset_of_list_oob () =
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> ignore (Bitset.of_list 2 [ 5 ]))

let test_stats_percentile_range () =
  let s = Stats.create () in
  Stats.add s 1.0;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile s 101.0))

let test_rng_pick_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick (Rng.create 0) [||]))

(* --- flow ---------------------------------------------------------------- *)

let test_flow_simple () =
  let f = Flow.create 4 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:3;
  Flow.add_edge f ~src:0 ~dst:2 ~cap:2;
  Flow.add_edge f ~src:1 ~dst:3 ~cap:2;
  Flow.add_edge f ~src:2 ~dst:3 ~cap:3;
  check Alcotest.int "max flow" 4 (Flow.max_flow f ~source:0 ~sink:3)

let test_flow_bottleneck () =
  let f = Flow.create 3 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:10;
  Flow.add_edge f ~src:1 ~dst:2 ~cap:1;
  check Alcotest.int "bottleneck" 1 (Flow.max_flow f ~source:0 ~sink:2)

let test_flow_disconnected () =
  let f = Flow.create 3 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:5;
  check Alcotest.int "no path" 0 (Flow.max_flow f ~source:0 ~sink:2)

let test_flow_needs_residual () =
  (* classic case where an augmenting path must push flow back *)
  let f = Flow.create 4 in
  Flow.add_edge f ~src:0 ~dst:1 ~cap:1;
  Flow.add_edge f ~src:0 ~dst:2 ~cap:1;
  Flow.add_edge f ~src:1 ~dst:2 ~cap:1;
  Flow.add_edge f ~src:1 ~dst:3 ~cap:1;
  Flow.add_edge f ~src:2 ~dst:3 ~cap:1;
  check Alcotest.int "flow 2" 2 (Flow.max_flow f ~source:0 ~sink:3)

(* --- record --------------------------------------------------------------- *)

let record_of metrics =
  {
    Record.tier = "test";
    params = [ Record.int_param "seed" 7 ];
    tables = [ Record.one_row "t" "case" metrics ];
    gates = [];
    notes = [];
  }

(* the JSON fields of the record's only metric *)
let metric_json m =
  let field name = function
    | Jsonout.Obj fields -> List.assoc name fields
    | _ -> Alcotest.failf "%s: not an object" name
  in
  let only = function
    | Jsonout.List [ x ] -> x
    | _ -> Alcotest.fail "expected a one-element list"
  in
  match
    only (field "metrics" (only (field "rows" (only (field "tables" (Record.json (record_of [ m ])))))))
  with
  | Jsonout.Obj fields -> fields
  | _ -> Alcotest.fail "metric is not an object"

let test_record_median () =
  let median m = List.assoc_opt "median" (metric_json m) in
  check Alcotest.bool "one value: no median" true
    (median (Record.nums "x" "ms" [ 3.0 ]) = None);
  check Alcotest.bool "one numeric value beside a missing one: no median" true
    (median (Record.nums "x" "ms" [ 3.0; nan ]) = None);
  check Alcotest.bool "text: no median" true (median (Record.text "x" "a") = None);
  check Alcotest.bool "two values: the upper median" true
    (median (Record.nums "x" "ms" [ 1.0; 3.0 ]) = Some (Jsonout.Float 3.0));
  check Alcotest.bool "three values: the middle one" true
    (median (Record.ints "x" "count" [ 5; 1; 3 ]) = Some (Jsonout.Float 3.0))

let test_record_nan () =
  let m = Record.nums "lat" "us" [ nan ] in
  check Alcotest.string "null in JSON" "[\n  null\n]"
    (Jsonout.to_string (List.assoc "values" (metric_json m)));
  let text = Record.render (record_of [ m ]) in
  check Alcotest.bool (Printf.sprintf "n/a in the table: %S" text) true
    (List.exists
       (fun line -> String.starts_with ~prefix:"lat us" line && String.ends_with ~suffix:"n/a" line)
       (String.split_on_char '\n' text))

let test_record_merge_order () =
  let row =
    Record.merge "c"
      [
        [ Record.ints "a" "count" [ 1 ]; Record.text "v" "x" ];
        [ Record.ints "a" "count" [ 2 ]; Record.text "v" "y" ];
        [ Record.ints "a" "count" [ 3 ]; Record.ints "late" "count" [ 9 ] ];
      ]
  in
  check Alcotest.string "case" "c" row.Record.case;
  check Alcotest.(list string) "metric order" [ "a"; "v"; "late" ]
    (List.map (fun m -> m.Record.name) row.Record.metrics);
  let values name =
    (List.find (fun m -> m.Record.name = name) row.Record.metrics).Record.values
  in
  check Alcotest.bool "numbers in rep order" true
    (values "a" = [ Record.Num 1.0; Record.Num 2.0; Record.Num 3.0 ]);
  check Alcotest.bool "text in rep order" true
    (values "v" = [ Record.Text "x"; Record.Text "y" ])

let fresh_dir () =
  let dir = Filename.temp_file "repro-record" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  dir

let test_record_target_unwritable () =
  let dir = fresh_dir () in
  let path = Filename.concat (Filename.concat dir "missing") "x.json" in
  (match Record.target path with
  | Ok _ -> Alcotest.fail "a path under a missing directory was accepted"
  | Error msg ->
      check Alcotest.bool (Printf.sprintf "error names the path: %S" msg) true
        (String.starts_with ~prefix:("cannot write " ^ path ^ ": ") msg));
  check Alcotest.bool "no file created" false (Sys.file_exists path);
  let ok = Filename.concat dir "ok.json" in
  (match Record.target ok with
  | Ok t -> check Alcotest.string "a writable path is kept" ok t.Record.path
  | Error msg -> Alcotest.failf "writable path rejected: %s" msg);
  check Alcotest.bool "the probe leaves no file behind" false (Sys.file_exists ok);
  Sys.rmdir dir

let test_record_target_numbering () =
  let dir = fresh_dir () in
  let touch f = close_out (open_out (Filename.concat dir f)) in
  List.iter touch [ "BENCH_0002.json"; "BENCH_0005.json"; "notes.txt" ];
  (match Record.target dir with
  | Error msg -> Alcotest.failf "directory rejected: %s" msg
  | Ok t ->
      check Alcotest.string "next slot after the highest"
        (Filename.concat dir "BENCH_0006.json")
        t.Record.path;
      check Alcotest.(list string) "gap note"
        [
          "trajectory gap: BENCH_0003, BENCH_0004 never recorded; numbering \
           continues at the next free slot";
        ]
        t.Record.gap_notes);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "repro_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "different seeds" `Quick test_rng_different_seeds;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split advances parent" `Quick test_rng_split_changes_parent;
          test_rng_int_bounds;
          test_rng_int_in_bounds;
          Alcotest.test_case "int rejects bad bound" `Quick test_rng_int_rejects;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
          test_rng_sample_without_replacement;
          Alcotest.test_case "coin extremes" `Quick test_rng_coin_extremes;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
          test_rng_matches_oracle;
          Alcotest.test_case "skip rejects a negative count" `Quick
            test_rng_skip_rejects;
          Alcotest.test_case "draws are allocation-free" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "basic order" `Quick test_pqueue_basic;
          Alcotest.test_case "pop_exn empty" `Quick test_pqueue_pop_exn_empty;
          test_pqueue_sorts;
          Alcotest.test_case "to_sorted_list preserves" `Quick
            test_pqueue_to_sorted_list_preserves;
          Alcotest.test_case "composite keys break ties" `Quick
            test_pqueue_stability_via_composite_keys;
          Alcotest.test_case "clear" `Quick test_pqueue_clear;
          Alcotest.test_case "growth and clear bounds" `Quick
            test_pqueue_growth_and_clear;
          Alcotest.test_case "popped values are not retained" `Quick
            test_pqueue_retains_no_popped_value;
        ] );
      ( "eventq",
        [
          Alcotest.test_case "bounds and the end of time" `Quick test_eventq_bounds;
          Alcotest.test_case "popped values are not retained" `Quick
            test_eventq_retains_no_popped_value;
          test_eventq_matches_reference;
        ] );
      ( "intheap",
        [
          Alcotest.test_case "basic order" `Quick test_intheap_basic;
          Alcotest.test_case "growth and clear bounds" `Quick
            test_intheap_growth_and_clear;
          Alcotest.test_case "growth forces no minor collection" `Quick
            test_intheap_growth_forces_no_minor_gc;
          Alcotest.test_case "popped values are not retained" `Quick
            test_intheap_retains_no_popped_value;
          test_intheap_matches_pqueue;
        ] );
      ( "ringbuf",
        [ Alcotest.test_case "fifo across growth" `Quick test_ringbuf_fifo_growth ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          test_bitset_set_ops;
          Alcotest.test_case "diff" `Quick test_bitset_diff;
          Alcotest.test_case "copy independent" `Quick test_bitset_copy_independent;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "of_list out of bounds" `Quick test_bitset_of_list_oob;
          test_bitset_iter_matches_scan;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "idempotent" `Quick test_union_find_idempotent;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile extremes" `Quick test_stats_percentile_extremes;
          test_stats_merge;
          Alcotest.test_case "welford matches naive" `Quick test_stats_welford_matches_naive;
          Alcotest.test_case "percentile range" `Quick test_stats_percentile_range;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "right align" `Quick test_table_right_align;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
          Alcotest.test_case "format helpers" `Quick test_fmt_helpers;
        ] );
      ( "record",
        [
          Alcotest.test_case "median only over two or more numbers" `Quick
            test_record_median;
          Alcotest.test_case "nan is null and n/a" `Quick test_record_nan;
          Alcotest.test_case "merge keeps rep order" `Quick
            test_record_merge_order;
          Alcotest.test_case "unwritable target rejected, no file left" `Quick
            test_record_target_unwritable;
          Alcotest.test_case "directory target auto-numbers with a gap note"
            `Quick test_record_target_numbering;
        ] );
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "closure" `Quick test_graph_closure;
          Alcotest.test_case "cycle detection" `Quick test_graph_cycle_detection;
          Alcotest.test_case "toposort deterministic" `Quick
            test_graph_toposort_deterministic;
          Alcotest.test_case "transitive reduction" `Quick test_graph_transitive_reduction;
          Alcotest.test_case "simple paths" `Quick test_graph_simple_paths;
          Alcotest.test_case "simple paths self cycle" `Quick
            test_graph_simple_paths_cycle_self;
          Alcotest.test_case "components" `Quick test_graph_components;
          test_graph_closure_matches_paths;
          test_graph_closure_at_scale;
          Alcotest.test_case "union mismatch" `Quick test_graph_union_mismatch;
          Alcotest.test_case "reduction cyclic" `Quick test_graph_reduction_cyclic;
        ] );
      ( "flow",
        [
          Alcotest.test_case "simple" `Quick test_flow_simple;
          Alcotest.test_case "bottleneck" `Quick test_flow_bottleneck;
          Alcotest.test_case "disconnected" `Quick test_flow_disconnected;
          Alcotest.test_case "needs residual" `Quick test_flow_needs_residual;
        ] );
    ]
