(* Tests for Repro_history: operations, histories, the paper's order
   relations, the consistency checkers — including the paper's Figures 3-6
   — and the generator-vs-checker properties. *)

module Op = Repro_history.Op
module History = Repro_history.History
module Orders = Repro_history.Orders
module Checker = Repro_history.Checker
module Generator = Repro_history.Generator
module Graph = Repro_util.Graph
module Rng = Repro_util.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* variables *)
let x = 0
let y = 1
let z = 2

(* values *)
let a = Op.Val 1
let b = Op.Val 2
let c = Op.Val 3
let d = Op.Val 4
let e = Op.Val 5

let r = Op.read
let w = Op.write

let consistent criterion h =
  match Checker.check criterion h with
  | Checker.Consistent -> true
  | Checker.Inconsistent -> false
  | Checker.Undecidable err ->
      Alcotest.failf "undecidable: %a" (fun ppf -> History.pp_rf_error ppf) err

(* --- op ------------------------------------------------------------------ *)

let test_op_pp () =
  let op = { Op.proc = 1; index = 0; kind = Op.Write; var = 2; value = Op.Val 5 } in
  check Alcotest.string "write" "w1(x2)5" (Op.to_string op);
  let op = { op with Op.kind = Op.Read; value = Op.Init } in
  check Alcotest.string "read bottom" "r1(x2)\xe2\x8a\xa5" (Op.to_string op)

let test_op_write_init_rejected () =
  Alcotest.check_raises "write bottom"
    (Invalid_argument "Op.write: cannot write the initial value") (fun () ->
      ignore (w ~var:0 Op.Init))

let test_op_value_compare () =
  check Alcotest.bool "init < val" true (Op.compare_value Op.Init (Op.Val 0) < 0);
  check Alcotest.bool "equal" true (Op.equal_value (Op.Val 3) (Op.Val 3));
  check Alcotest.bool "not equal" false (Op.equal_value (Op.Val 3) Op.Init)

(* --- history ------------------------------------------------------------- *)

let test_history_construction () =
  let h = History.of_lists [ [ w ~var:x a; r ~var:x a ]; [ r ~var:x Op.Init ] ] in
  check Alcotest.int "procs" 2 (History.n_procs h);
  check Alcotest.int "ops" 3 (History.n_ops h);
  check Alcotest.(list int) "vars" [ x ] (History.vars h);
  let o = History.op h 2 in
  check Alcotest.int "third op proc" 1 o.Op.proc;
  check Alcotest.int "global id roundtrip" 2 (History.id h o)

let test_history_sub_history () =
  let h =
    History.of_lists
      [ [ w ~var:x a; r ~var:y Op.Init ]; [ w ~var:y b ]; [ r ~var:x a ] ]
  in
  let subset = History.sub_history h 2 in
  (* all writes + p2's ops = w(x)a, w(y)b, r2(x)a *)
  check Alcotest.int "H_{2+w} size" 3 (List.length subset);
  check Alcotest.int "writes count" 2 (List.length (History.writes h))

let test_history_differentiated () =
  let good = History.of_lists [ [ w ~var:x a ]; [ w ~var:x b ] ] in
  check Alcotest.bool "differentiated" true (History.is_differentiated good);
  let bad = History.of_lists [ [ w ~var:x a ]; [ w ~var:x a ] ] in
  check Alcotest.bool "duplicate write value" false (History.is_differentiated bad)

let test_history_read_from () =
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a; r ~var:x Op.Init ] ] in
  match History.read_from h with
  | Error err -> Alcotest.failf "unexpected rf error: %a" History.pp_rf_error err
  | Ok rf ->
      check Alcotest.(option int) "read takes from write" (Some 0) rf.(1);
      check Alcotest.(option int) "bottom read has no source" None rf.(2)

let test_history_read_from_dangling () =
  let h = History.of_lists [ [ r ~var:x (Op.Val 9) ] ] in
  match History.read_from h with
  | Error (History.Dangling_read _) -> ()
  | _ -> Alcotest.fail "expected dangling read error"

let test_history_read_from_ambiguous () =
  let h = History.of_lists [ [ w ~var:x a ]; [ w ~var:x a ]; [ r ~var:x a ] ] in
  match History.read_from h with
  | Error (History.Ambiguous_read _) -> ()
  | _ -> Alcotest.fail "expected ambiguous read error"

(* Read-from and the writer table against a scan of every pair of
   operations, on histories with repeated values, reads of values nobody
   wrote and writes of [Init]: the same sources, the same first bad read
   with the same error, and the same differentiation verdict. *)
let test_history_read_from_matches_pair_scan =
  qcheck
    (QCheck.Test.make ~name:"read_from_matches_a_pairwise_scan" ~count:500
       QCheck.small_int
       (fun seed ->
         let rng = Rng.create seed in
         let op _ =
           let kind = if Rng.bool rng then Op.Read else Op.Write in
           let value = if Rng.int rng 5 = 0 then Op.Init else Op.Val (Rng.int rng 4) in
           (kind, Rng.int rng 3, value)
         in
         let h =
           History.of_lists
             (List.init (Rng.int_in rng 1 4) (fun _ -> List.init (Rng.int rng 8) op))
         in
         let ops = History.ops h in
         let same_write (o : Op.t) (v : Op.t) =
           Op.is_write v && v.var = o.var && Op.equal_value v.value o.value
         in
         (* descending global ids, as [History.writers] lists them *)
         let candidates gid =
           List.init (Array.length ops) Fun.id
           |> List.filter (fun v -> same_write ops.(gid) ops.(v))
           |> List.rev
         in
         let expected_writers =
           Array.mapi
             (fun gid (o : Op.t) ->
               if Op.is_read o && o.value = Op.Init then [] else candidates gid)
             ops
         in
         let rec expected gid rf =
           if gid = Array.length ops then Ok rf
           else
             let o = ops.(gid) in
             match (o.kind, o.value, expected_writers.(gid)) with
             | Op.Read, Op.Val _, [ w ] ->
                 rf.(gid) <- Some w;
                 expected (gid + 1) rf
             | Op.Read, Op.Val _, [] -> Error (`Dangling o)
             | Op.Read, Op.Val _, _ -> Error (`Ambiguous o)
             | _ -> expected (gid + 1) rf
         in
         let got =
           match History.read_from h with
           | Ok rf -> Ok rf
           | Error (History.Dangling_read o) -> Error (`Dangling o)
           | Error (History.Ambiguous_read o) -> Error (`Ambiguous o)
         in
         History.writers h = expected_writers
         && got = expected 0 (Array.make (Array.length ops) None)
         && History.is_differentiated h
            = Array.for_all
                (fun (o : Op.t) ->
                  (not (Op.is_write o)) || List.length (candidates (History.id h o)) = 1)
                ops))

let test_history_parse () =
  let text = "p0: w(x0)1 r(x0)1\np1: r1(x0)1 w1(x1)2\n\n# comment\np2:\n" in
  match History.parse text with
  | Error msg -> Alcotest.fail msg
  | Ok h ->
      check Alcotest.int "procs" 3 (History.n_procs h);
      check Alcotest.int "ops" 4 (History.n_ops h);
      let o = History.op h 2 in
      check Alcotest.bool "p1 read" true (o.Op.proc = 1 && Op.is_read o)

let test_history_parse_roundtrip =
  qcheck
    (QCheck.Test.make ~name:"parse_roundtrips_with_to_string" ~count:200
       QCheck.small_int (fun seed ->
         let h =
           Generator.arbitrary (Rng.create seed)
             { Generator.procs = 3; vars = 3; ops_per_proc = 5; read_ratio = 0.5 }
         in
         match History.parse (History.to_string h) with
         | Error _ -> false
         | Ok h' -> History.to_string h = History.to_string h'))

let test_history_parse_errors () =
  let cases =
    [
      ("q0: w(x0)1", "bad process");
      ("p0: z(x0)1", "start with");
      ("p0: w(x0)", "bad value");
      ("p0: wx0)1", "missing '('");
      ("p0: w(x0)init", "cannot write");
      ("p0: w(x0)1\np0: r(x0)1", "duplicate process");
      ("p0: w1(x0)1", "annotated p1");
    ]
  in
  List.iter
    (fun (text, fragment) ->
      match History.parse text with
      | Ok _ -> Alcotest.failf "expected parse error for %S" text
      | Error msg ->
          let contains =
            let nl = String.length fragment and hl = String.length msg in
            let rec scan i =
              i + nl <= hl && (String.sub msg i nl = fragment || scan (i + 1))
            in
            scan 0
          in
          if not contains then
            Alcotest.failf "error %S does not mention %S" msg fragment)
    cases

let test_history_parse_bottom_forms () =
  List.iter
    (fun form ->
      match History.parse (Printf.sprintf "p0: r(x0)%s" form) with
      | Ok h -> check Alcotest.bool form true ((History.op h 0).Op.value = Op.Init)
      | Error msg -> Alcotest.fail msg)
    [ "\xe2\x8a\xa5"; "_"; "init"; "INIT" ]

let test_history_bad_indices () =
  let h = History.of_lists [ [ w ~var:x a ] ] in
  Alcotest.check_raises "bad gid" (Invalid_argument "History.op: bad global id")
    (fun () -> ignore (History.op h 5));
  Alcotest.check_raises "bad proc" (Invalid_argument "History.id_of_addr: bad process")
    (fun () -> ignore (History.id_of_addr h ~proc:3 ~index:0));
  Alcotest.check_raises "bad index" (Invalid_argument "History.id_of_addr: bad index")
    (fun () -> ignore (History.id_of_addr h ~proc:0 ~index:9))

let test_criterion_names_distinct () =
  let names = List.map Checker.criterion_name Checker.all_criteria in
  check Alcotest.int "eight criteria" 8 (List.length names);
  check Alcotest.int "all distinct" 8 (List.length (List.sort_uniq compare names))

(* --- orders -------------------------------------------------------------- *)

let test_program_order () =
  let h = History.of_lists [ [ w ~var:x a; r ~var:x a; w ~var:y b ] ] in
  let po = Orders.program_order h in
  check Alcotest.bool "0->1" true (Graph.mem_edge po 0 1);
  check Alcotest.bool "0->2 transitive" true (Graph.mem_edge po 0 2);
  check Alcotest.bool "no reverse" false (Graph.mem_edge po 2 0);
  let base = Orders.program_order_base h in
  check Alcotest.bool "base lacks 0->2" false (Graph.mem_edge base 0 2)

let test_lazy_program_order () =
  (* Definition 5: read->read same var, read->write any var,
     write->op same var; NOT write->write different vars. *)
  let h =
    History.of_lists
      [ [ w ~var:x a; w ~var:y b; r ~var:x a; r ~var:y b; w ~var:z c ] ]
  in
  let li = Orders.lazy_program_order h in
  check Alcotest.bool "w(x) li w(y) absent" false (Graph.mem_edge li 0 1);
  check Alcotest.bool "w(x) li r(x)" true (Graph.mem_edge li 0 2);
  check Alcotest.bool "w(y) li r(y)" true (Graph.mem_edge li 1 3);
  check Alcotest.bool "r(x) li w(z)" true (Graph.mem_edge li 2 4);
  check Alcotest.bool "r(x) li r(y) absent" false (Graph.mem_edge li 2 3);
  (* transitivity: w(x) li r(x) li w(z) *)
  check Alcotest.bool "w(x) li w(z) via read" true (Graph.mem_edge li 0 4)

let test_causal_order_via_rf () =
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a; w ~var:y b ]; [ r ~var:y b ] ] in
  let rf = Result.get_ok (History.read_from h) in
  let co = Orders.causal h rf in
  check Alcotest.bool "w(x)a co r(y)b transitively" true (Graph.mem_edge co 0 3);
  check Alcotest.bool "concurrent ops" true (Orders.concurrent co 0 0 = false || true)

let test_pram_not_transitive () =
  (* w1(x)a -> r2(x)a -> w2(y)b: pram relates w1(x)a to r2(x)a (rf) and
     r2(x)a to w2(y)b (po) but NOT w1(x)a to w2(y)b. *)
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a; w ~var:y b ] ] in
  let rf = Result.get_ok (History.read_from h) in
  let pram = Orders.pram h rf in
  check Alcotest.bool "rf edge" true (Graph.mem_edge pram 0 1);
  check Alcotest.bool "po edge" true (Graph.mem_edge pram 1 2);
  check Alcotest.bool "no transitive edge" false (Graph.mem_edge pram 0 2);
  let co = Orders.causal h rf in
  check Alcotest.bool "causal closes it" true (Graph.mem_edge co 0 2)

let test_lazy_writes_before () =
  (* w_i(x)v ->lwb r_j(y)u via o' = w_i(y)u with w_i(x)v ->li o'.
     p0: w(x)a, r(x)a, w(y)b  (so w(x)a li w(y)b through the read)
     p1: r(y)b *)
  let h = History.of_lists [ [ w ~var:x a; r ~var:x a; w ~var:y b ]; [ r ~var:y b ] ] in
  let rf = Result.get_ok (History.read_from h) in
  let lwb = Orders.lazy_writes_before h rf in
  check Alcotest.bool "w(x)a lwb r(y)b" true (Graph.mem_edge lwb 0 3);
  (* without the connecting read there is no li edge, hence no lwb *)
  let h2 = History.of_lists [ [ w ~var:x a; w ~var:y b ]; [ r ~var:y b ] ] in
  let rf2 = Result.get_ok (History.read_from h2) in
  let lwb2 = Orders.lazy_writes_before h2 rf2 in
  check Alcotest.bool "no li, no lwb" false (Graph.mem_edge lwb2 0 2)

let test_respects () =
  let h = History.of_lists [ [ w ~var:x a; w ~var:y b ] ] in
  let po = Orders.program_order h in
  check Alcotest.bool "good order" true (Orders.respects ~order:[ 0; 1 ] po);
  check Alcotest.bool "bad order" false (Orders.respects ~order:[ 1; 0 ] po);
  check Alcotest.bool "absent ops ignored" true (Orders.respects ~order:[ 1 ] po)

(* --- serialization primitives -------------------------------------------- *)

let test_validate_serialization () =
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a ] ] in
  let rf = Result.get_ok (History.read_from h) in
  let co = Orders.causal h rf in
  check Alcotest.bool "valid" true
    (Checker.validate_serialization h ~subset:[ 0; 1 ] ~relation:co ~order:[ 0; 1 ]);
  check Alcotest.bool "illegal read placement" false
    (Checker.validate_serialization h ~subset:[ 0; 1 ] ~relation:co ~order:[ 1; 0 ]);
  check Alcotest.bool "not a permutation" false
    (Checker.validate_serialization h ~subset:[ 0; 1 ] ~relation:co ~order:[ 0 ])

let test_find_serialization_legality () =
  (* r(x)bottom then w(x)a: serialization must place the read first *)
  let h = History.of_lists [ [ w ~var:x a ] ; [ r ~var:x Op.Init ] ] in
  let relation = Graph.create 2 in
  match Checker.find_serialization h ~subset:[ 0; 1 ] ~relation with
  | None -> Alcotest.fail "must find a serialization"
  | Some order -> check Alcotest.(list int) "read first" [ 1; 0 ] order

let test_find_serialization_impossible () =
  (* One process reads a then bottom on the same variable: impossible. *)
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a; r ~var:x Op.Init ] ] in
  let rf = Result.get_ok (History.read_from h) in
  let co = Orders.causal h rf in
  check Alcotest.bool "no serialization" true
    (Checker.find_serialization h ~subset:[ 0; 1; 2 ] ~relation:co = None)

(* Exhaustive cross-validation of the optimized search: for tiny op sets,
   enumerate every permutation and compare existence with
   find_serialization (which uses greedy reads, dead-window pruning and
   memoization). *)
let brute_force_exists h ~subset ~relation =
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun rest -> x :: rest) (permutations (List.filter (( <> ) x) l)))
          l
  in
  List.exists
    (fun order -> Checker.validate_serialization h ~subset ~relation ~order)
    (permutations subset)

let test_search_vs_brute_force =
  qcheck
    (QCheck.Test.make ~name:"find_serialization_matches_brute_force" ~count:150
       QCheck.small_int (fun seed ->
         let h =
           Generator.arbitrary (Rng.create seed)
             { Generator.procs = 2; vars = 2; ops_per_proc = 3; read_ratio = 0.5 }
         in
         match History.read_from h with
         | Error _ -> QCheck.assume_fail ()
         | Ok rf ->
             let relation = Orders.causal h rf in
             let subset = List.init (History.n_ops h) Fun.id in
             let fast = Checker.find_serialization h ~subset ~relation <> None in
             let slow = brute_force_exists h ~subset ~relation in
             fast = slow))

let test_search_vs_brute_force_pram =
  qcheck
    (QCheck.Test.make ~name:"find_serialization_matches_brute_force_pram" ~count:100
       QCheck.small_int (fun seed ->
         let h =
           Generator.arbitrary (Rng.create (seed + 1000))
             { Generator.procs = 3; vars = 2; ops_per_proc = 2; read_ratio = 0.5 }
         in
         match History.read_from h with
         | Error _ -> QCheck.assume_fail ()
         | Ok rf ->
             (* the unclosed PRAM relation exercises restriction semantics *)
             let relation = Orders.pram h rf in
             let subset = List.map (History.id h) (History.sub_history h 0) in
             let fast = Checker.find_serialization h ~subset ~relation <> None in
             let slow = brute_force_exists h ~subset ~relation in
             fast = slow))

(* --- paper figures -------------------------------------------------------- *)

(* Figure 3: the x-dependency chain pattern, here with two intermediate
   processes.  p0: w(x)v, w(x1)v1; p1: r(x1)v1, w(x2)v2; p2: r(x2)v2,
   w(x3)v3; p3: r(x3)v3, r(x)v.  The final read is causally constrained by
   the initial write. *)
let fig3_history =
  let x1 = 1 and x2 = 2 and x3 = 3 in
  History.of_lists
    [
      [ w ~var:x a; w ~var:x1 (Op.Val 11) ];
      [ r ~var:x1 (Op.Val 11); w ~var:x2 (Op.Val 12) ];
      [ r ~var:x2 (Op.Val 12); w ~var:x3 (Op.Val 13) ];
      [ r ~var:x3 (Op.Val 13); r ~var:x a ];
    ]

let test_fig3_chain_dependency () =
  let h = fig3_history in
  let rf = Result.get_ok (History.read_from h) in
  let co = Orders.causal h rf in
  let wa = 0 (* w0(x)a *) and ob = History.n_ops h - 1 (* r3(x)a *) in
  check Alcotest.bool "w0(x)a co r3(x)a" true (Graph.mem_edge co wa ob);
  (* the history as given (read returns a) is causal … *)
  check Alcotest.bool "causal as written" true (consistent Checker.Causal h);
  (* … but returning bottom instead would violate causality *)
  let h_bad =
    History.of_lists
      [
        [ w ~var:x a; w ~var:1 (Op.Val 11) ];
        [ r ~var:1 (Op.Val 11); w ~var:2 (Op.Val 12) ];
        [ r ~var:2 (Op.Val 12); w ~var:3 (Op.Val 13) ];
        [ r ~var:3 (Op.Val 13); r ~var:x Op.Init ];
      ]
  in
  check Alcotest.bool "bottom read violates causal" false
    (consistent Checker.Causal h_bad);
  (* PRAM puts no constraint through the chain: the bottom read is fine *)
  check Alcotest.bool "PRAM tolerates it" true (consistent Checker.Pram h_bad)

(* Figure 4 (lazy causal but not causal).
   p0: w(x)a, r(x)a, w(y)b        — the read makes w(x)a li w(y)b
   p1: r(y)b, w(y)c
   p2: r(y)c, r(x)bottom *)
let fig4_history =
  History.of_lists
    [
      [ w ~var:x a; r ~var:x a; w ~var:y b ];
      [ r ~var:y b; w ~var:y c ];
      [ r ~var:y c; r ~var:x Op.Init ];
    ]

let test_fig4_lazy_causal_not_causal () =
  let h = fig4_history in
  check Alcotest.bool "not causal" false (consistent Checker.Causal h);
  check Alcotest.bool "lazy causal" true (consistent Checker.Lazy_causal h);
  (* the figure's point: r2(y)c and r2(x)bottom are lco-concurrent *)
  let rf = Result.get_ok (History.read_from h) in
  let lco = Orders.lazy_causal h rf in
  let rc = History.id_of_addr h ~proc:2 ~index:0 in
  let rbot = History.id_of_addr h ~proc:2 ~index:1 in
  check Alcotest.bool "lco-concurrent reads" true (Orders.concurrent lco rc rbot);
  let wa = History.id_of_addr h ~proc:0 ~index:0 in
  check Alcotest.bool "w(x)a does not lco-precede r(x)bottom" false
    (Graph.mem_edge lco wa rbot);
  (* paper note: the history is PRAM consistent as well *)
  check Alcotest.bool "pram" true (consistent Checker.Pram h)

let test_fig4_serializations_validate () =
  (* The serializations S1-S3 printed in the paper respect lco and are
     legal. *)
  let h = fig4_history in
  let rf = Result.get_ok (History.read_from h) in
  let lco = Orders.lazy_causal h rf in
  let id p i = History.id_of_addr h ~proc:p ~index:i in
  let w1xa = id 0 0 and r1xa = id 0 1 and w1yb = id 0 2 in
  let r2yb = id 1 0 and w2yc = id 1 1 in
  let r3yc = id 2 0 and r3x = id 2 1 in
  let subset p = List.map (History.id h) (History.sub_history h p) in
  (* S1 = w1(x)a r1(x)a w1(y)b w2(y)c *)
  check Alcotest.bool "S1" true
    (Checker.validate_serialization h ~subset:(subset 0) ~relation:lco
       ~order:[ w1xa; r1xa; w1yb; w2yc ]);
  (* S2 = w1(x)a w1(y)b r2(y)b w2(y)c *)
  check Alcotest.bool "S2" true
    (Checker.validate_serialization h ~subset:(subset 1) ~relation:lco
       ~order:[ w1xa; w1yb; r2yb; w2yc ]);
  (* S3 = r3(x)bottom w1(x)a w1(y)b w2(y)c r3(y)c *)
  check Alcotest.bool "S3" true
    (Checker.validate_serialization h ~subset:(subset 2) ~relation:lco
       ~order:[ r3x; w1xa; w1yb; w2yc; r3yc ])

(* Figure 5 (not even lazy causal): fig 4 plus p2 writes x=d after its read
   of y=c, and a fourth process reads d then a. *)
let fig5_history =
  History.of_lists
    [
      [ w ~var:x a; r ~var:x a; w ~var:y b ];
      [ r ~var:y b; w ~var:y c ];
      [ r ~var:y c; w ~var:x d ];
      [ r ~var:x d; r ~var:x a ];
    ]

let test_fig5_not_lazy_causal () =
  let h = fig5_history in
  check Alcotest.bool "not lazy causal" false (consistent Checker.Lazy_causal h);
  check Alcotest.bool "not causal either" false (consistent Checker.Causal h);
  (* the chain: w0(x)a lco w2(x)d via r2(y)c ->li w2(x)d *)
  let rf = Result.get_ok (History.read_from h) in
  let lco = Orders.lazy_causal h rf in
  let wa = History.id_of_addr h ~proc:0 ~index:0 in
  let wd = History.id_of_addr h ~proc:2 ~index:1 in
  check Alcotest.bool "w0(x)a lco w2(x)d" true (Graph.mem_edge lco wa wd);
  (* PRAM allows it: processes may disagree on writes by different
     processes *)
  check Alcotest.bool "pram" true (consistent Checker.Pram h)

(* Figure 6 (not lazy semi-causal).  As printed the figure's own derivation
   needs w2(y)e ->li w2(z)c, which Definition 5 only grants through an
   intervening read; we insert r2(y)e (reading the process's own write) to
   make the printed chain well-typed.  See EXPERIMENTS.md. *)
let fig6_history =
  History.of_lists
    [
      [ w ~var:x a; r ~var:x a; w ~var:y b ];
      [ r ~var:y b; w ~var:y e; r ~var:y e; w ~var:z c ];
      [ r ~var:z c; w ~var:x d ];
      [ r ~var:x d; r ~var:x a ];
    ]

let test_fig6_not_lazy_semi_causal () =
  let h = fig6_history in
  check Alcotest.bool "not lazy semi-causal" false
    (consistent Checker.Lazy_semi_causal h);
  (* the lsc chain exists: w0(x)a lsc w2(x)d *)
  let rf = Result.get_ok (History.read_from h) in
  let lsc = Orders.lazy_semi_causal h rf in
  let wa = History.id_of_addr h ~proc:0 ~index:0 in
  let wd = History.id_of_addr h ~proc:2 ~index:1 in
  check Alcotest.bool "w0(x)a lsc w2(x)d" true (Graph.mem_edge lsc wa wd);
  (* the individual lwb links from the paper's derivation *)
  let lwb = Orders.lazy_writes_before h rf in
  let r2yb = History.id_of_addr h ~proc:1 ~index:0 in
  check Alcotest.bool "w0(x)a lwb r1(y)b" true (Graph.mem_edge lwb wa r2yb);
  let w2ye = History.id_of_addr h ~proc:1 ~index:1 in
  let r3zc = History.id_of_addr h ~proc:2 ~index:0 in
  check Alcotest.bool "w1(y)e lwb r2(z)c" true (Graph.mem_edge lwb w2ye r3zc);
  (* still PRAM *)
  check Alcotest.bool "pram" true (consistent Checker.Pram h)

(* Fig. 6 *as printed* (no r2(y)e): the li-based lazy-writes-before cannot
   type the paper's own derivation, so the history is lazy-semi-causal —
   but under Ahamad et al.'s original weak-program-order writes-before
   (semi-causality, which the paper says is stronger) the chain exists and
   the history is rejected.  This reconciles the printed figure with
   Definition 8; see EXPERIMENTS.md. *)
let fig6_as_printed =
  History.of_lists
    [
      [ w ~var:x a; r ~var:x a; w ~var:y b ];
      [ r ~var:y b; w ~var:y e; w ~var:z c ];
      [ r ~var:z c; w ~var:x d ];
      [ r ~var:x d; r ~var:x a ];
    ]

let test_weak_program_order () =
  let h = History.of_lists [ [ w ~var:x a; r ~var:y Op.Init; w ~var:y b; r ~var:y b ] ] in
  let wpo = Orders.weak_program_order h in
  (* write -> read of a different variable is relaxed *)
  check Alcotest.bool "w(x) wpo r(y) relaxed" false (Graph.mem_edge wpo 0 1);
  (* write -> write is kept (unlike lazy program order) *)
  check Alcotest.bool "w(x) wpo w(y)" true (Graph.mem_edge wpo 0 2);
  (* write -> read same variable is kept *)
  check Alcotest.bool "w(y) wpo r(y)" true (Graph.mem_edge wpo 2 3);
  let li = Orders.lazy_program_order h in
  (* weak program order extends lazy program order *)
  List.iter
    (fun (u, v) ->
      check Alcotest.bool "li subset of wpo" true (Graph.mem_edge wpo u v))
    (Graph.edges li)

let test_fig6_as_printed_reconciliation () =
  let h = fig6_as_printed in
  check Alcotest.bool "lazy-semi-causal as printed" true
    (consistent Checker.Lazy_semi_causal h);
  check Alcotest.bool "not semi-causal" false (consistent Checker.Semi_causal h);
  check Alcotest.bool "still pram" true (consistent Checker.Pram h);
  (* the semi-causal chain from the paper's derivation *)
  let rf = Result.get_ok (History.read_from h) in
  let sc = Orders.semi_causal h rf in
  let wa = History.id_of_addr h ~proc:0 ~index:0 in
  let wd = History.id_of_addr h ~proc:2 ~index:1 in
  check Alcotest.bool "w0(x)a sc w2(x)d" true (Graph.mem_edge sc wa wd);
  (* and the individual wwb links *)
  let wwb = Orders.weak_writes_before h rf in
  let r1yb = History.id_of_addr h ~proc:1 ~index:0 in
  check Alcotest.bool "w0(x)a wwb r1(y)b" true (Graph.mem_edge wwb wa r1yb);
  let w1ye = History.id_of_addr h ~proc:1 ~index:1 in
  let r2zc = History.id_of_addr h ~proc:2 ~index:0 in
  check Alcotest.bool "w1(y)e wwb r2(z)c" true (Graph.mem_edge wwb w1ye r2zc)

let test_semi_causal_between_causal_and_lsc () =
  (* fig4 is not causal but is semi-causal?  Check the documented
     inclusions instead on known histories: fig6 (with the extra read) is
     rejected by both lsc and semi-causal; the store-buffer history is
     causal hence semi-causal. *)
  check Alcotest.bool "fig6 (amended) not semi-causal" false
    (consistent Checker.Semi_causal fig6_history);
  let store_buffer =
    History.of_lists
      [ [ w ~var:x a; r ~var:y Op.Init ]; [ w ~var:y b; r ~var:x Op.Init ] ]
  in
  check Alcotest.bool "store buffer semi-causal" true
    (consistent Checker.Semi_causal store_buffer)

(* --- criterion basics ----------------------------------------------------- *)

let test_sequential_positive () =
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a ] ] in
  check Alcotest.bool "sequential" true (consistent Checker.Sequential h)

let test_sequential_negative () =
  (* classic non-SC: two processes each write then read the other's
     variable, both reading bottom *)
  let h =
    History.of_lists
      [ [ w ~var:x a; r ~var:y Op.Init ]; [ w ~var:y b; r ~var:x Op.Init ] ]
  in
  check Alcotest.bool "not sequential" false (consistent Checker.Sequential h);
  (* but it is causal: the writes are concurrent *)
  check Alcotest.bool "causal" true (consistent Checker.Causal h)

let test_causal_negative_write_order () =
  (* p0 writes a then b to x; p1 reads b then a: violates causal (and
     PRAM). *)
  let h = History.of_lists [ [ w ~var:x a; w ~var:x b ]; [ r ~var:x b; r ~var:x a ] ] in
  check Alcotest.bool "not causal" false (consistent Checker.Causal h);
  check Alcotest.bool "not pram" false (consistent Checker.Pram h);
  (* not even slow: same writer, same variable *)
  check Alcotest.bool "not slow" false (consistent Checker.Slow h)

let test_pram_allows_disagreement () =
  (* Two readers observe two independent writes in opposite orders: not
     causal? actually causal allows it too (concurrent writes); but cache
     consistency forbids it on a single variable. *)
  let h =
    History.of_lists
      [
        [ w ~var:x a ];
        [ w ~var:x b ];
        [ r ~var:x a; r ~var:x b ];
        [ r ~var:x b; r ~var:x a ];
      ]
  in
  check Alcotest.bool "pram" true (consistent Checker.Pram h);
  check Alcotest.bool "causal" true (consistent Checker.Causal h);
  check Alcotest.bool "not cache consistent" false (consistent Checker.Cache h);
  check Alcotest.bool "not sequential" false (consistent Checker.Sequential h)

let test_slow_weaker_than_pram () =
  (* Same writer writes x then y; a reader sees the new y but the old x.
     PRAM forbids (program order across variables), slow allows. *)
  let h =
    History.of_lists
      [ [ w ~var:x a; w ~var:y b ]; [ r ~var:y b; r ~var:x Op.Init ] ]
  in
  check Alcotest.bool "not pram" false (consistent Checker.Pram h);
  check Alcotest.bool "slow" true (consistent Checker.Slow h)

let test_cache_per_variable () =
  let h =
    History.of_lists
      [ [ w ~var:x a; w ~var:y b ]; [ r ~var:y b; r ~var:x Op.Init ] ]
  in
  (* per-variable serializations exist even though PRAM fails *)
  check Alcotest.bool "cache consistent" true (consistent Checker.Cache h)

let test_dangling_read_inconsistent () =
  let h = History.of_lists [ [ r ~var:x (Op.Val 9) ] ] in
  check Alcotest.bool "dangling read" false (consistent Checker.Pram h)

let test_undecidable_raises () =
  let h = History.of_lists [ [ w ~var:x a ]; [ w ~var:x a ]; [ r ~var:x a ] ] in
  match Checker.check Checker.Causal h with
  | Checker.Undecidable _ -> ()
  | _ -> Alcotest.fail "expected undecidable"

let test_empty_history () =
  let h = History.of_lists [ []; [] ] in
  List.iter
    (fun criterion ->
      check Alcotest.bool (Checker.criterion_name criterion) true (consistent criterion h))
    Checker.all_criteria

let test_witness_roundtrip () =
  let h = fig4_history in
  match Checker.witness Checker.Lazy_causal h with
  | None -> Alcotest.fail "expected witness"
  | Some units ->
      let rf = Result.get_ok (History.read_from h) in
      let lco = Orders.lazy_causal h rf in
      List.iter
        (fun (key, order) ->
          let p =
            match key with
            | Checker.Proc p -> p
            | key -> Alcotest.failf "unexpected unit key %s" (Checker.unit_key_name key)
          in
          let subset = List.map (History.id h) (History.sub_history h p) in
          check Alcotest.bool "witness validates" true
            (Checker.validate_serialization h ~subset ~relation:lco ~order))
        units

(* Relation-level inclusions: the criterion lattice is driven by inclusion
   of the underlying order relations; check them edge by edge on random
   histories. *)
let subrelation a b =
  List.for_all (fun (u, v) -> Graph.mem_edge b u v) (Graph.edges a)

let test_relation_inclusions =
  qcheck
    (QCheck.Test.make ~name:"order_relation_inclusions" ~count:150 QCheck.small_int
       (fun seed ->
         let h =
           Generator.arbitrary (Rng.create seed)
             { Generator.procs = 3; vars = 3; ops_per_proc = 5; read_ratio = 0.5 }
         in
         match History.read_from h with
         | Error _ -> QCheck.assume_fail ()
         | Ok rf ->
             let po = Orders.program_order h in
             let li = Orders.lazy_program_order h in
             let wpo = Orders.weak_program_order h in
             let co = Orders.causal h rf in
             let lco = Orders.lazy_causal h rf in
             let lsc = Orders.lazy_semi_causal h rf in
             let sc = Orders.semi_causal h rf in
             let pram = Orders.pram h rf in
             (* program-order ladder: li ⊆ wpo ⊆ po *)
             subrelation li wpo && subrelation wpo po
             (* causality ladder: lco, lsc, sc, pram all inside co *)
             && subrelation lco co
             && subrelation lsc co
             && subrelation sc co
             && subrelation pram co
             (* lsc inside sc (the paper: semi-causality is stronger) *)
             && subrelation lsc sc))

let test_relation_acyclicity =
  qcheck
    (QCheck.Test.make ~name:"consistent_generated_relations_acyclic" ~count:100
       QCheck.small_int (fun seed ->
         (* on causally consistent histories the causality order is acyclic *)
         let h =
           Generator.causal_consistent (Rng.create seed)
             { Generator.procs = 3; vars = 2; ops_per_proc = 5; read_ratio = 0.5 }
         in
         let rf = Result.get_ok (History.read_from h) in
         Graph.is_acyclic (Orders.causal h rf)
         && Graph.is_acyclic (Orders.semi_causal h rf)
         && Graph.is_acyclic (Orders.lazy_semi_causal h rf)))

(* --- session guarantees -------------------------------------------------------- *)

module Session = Repro_history.Session

let test_session_ryw_violation () =
  (* reading bottom right after your own write *)
  let h = History.of_lists [ [ w ~var:x a; r ~var:x Op.Init ] ] in
  check Alcotest.bool "ryw violated" false (Session.holds Session.Read_your_writes h);
  (* the others don't care *)
  check Alcotest.bool "mr fine" true (Session.holds Session.Monotonic_reads h);
  check Alcotest.bool "mw fine" true (Session.holds Session.Monotonic_writes h)

let test_session_mr_violation () =
  (* a read of the new value followed by a read of the old one *)
  let h = History.of_lists [ [ w ~var:x a ]; [ r ~var:x a; r ~var:x Op.Init ] ] in
  check Alcotest.bool "mr violated" false (Session.holds Session.Monotonic_reads h);
  check Alcotest.bool "ryw fine" true (Session.holds Session.Read_your_writes h)

let test_session_mw_violation () =
  (* one writer's writes observed out of order *)
  let h = History.of_lists [ [ w ~var:x a; w ~var:x b ]; [ r ~var:x b; r ~var:x a ] ] in
  check Alcotest.bool "mw violated" false (Session.holds Session.Monotonic_writes h);
  check Alcotest.bool "mr fine" true (Session.holds Session.Monotonic_reads h)

let test_session_wfr_violation () =
  (* the fig3 chain: a write made after reading must carry the read's
     source along *)
  let h =
    History.of_lists
      [
        [ w ~var:x a ];
        [ r ~var:x a; w ~var:y b ];
        [ r ~var:y b; r ~var:x Op.Init ];
      ]
  in
  check Alcotest.bool "wfr violated" false
    (Session.holds Session.Writes_follow_reads h);
  (* PRAM tolerates exactly this (no transitivity) *)
  check Alcotest.bool "pram fine" true (consistent Checker.Pram h)

let test_session_pram_implies_ryw_mr_mw =
  qcheck
    (QCheck.Test.make ~name:"pram_implies_ryw_mr_mw" ~count:200 QCheck.small_int
       (fun seed ->
         let h =
           Generator.arbitrary (Rng.create seed)
             { Generator.procs = 3; vars = 2; ops_per_proc = 4; read_ratio = 0.5 }
         in
         match History.read_from h with
         | Error _ -> QCheck.assume_fail ()
         | Ok _ ->
             (not (consistent Checker.Pram h))
             || (Session.holds Session.Read_your_writes h
                && Session.holds Session.Monotonic_reads h
                && Session.holds Session.Monotonic_writes h)))

let test_session_causal_implies_all =
  qcheck
    (QCheck.Test.make ~name:"causal_implies_all_session_guarantees" ~count:200
       QCheck.small_int (fun seed ->
         let h =
           Generator.causal_consistent (Rng.create seed)
             { Generator.procs = 3; vars = 2; ops_per_proc = 5; read_ratio = 0.5 }
         in
         List.for_all (fun g -> Session.holds g h) Session.all_guarantees))

let test_session_conjunction_weaker_than_pram () =
  (* found by random search: RYW ∧ MR ∧ MW hold (separate witnesses) yet
     no single PRAM serialization exists *)
  let h =
    History.of_lists
      [
        [ r ~var:y (Op.Val 1); r ~var:x Op.Init; w ~var:y (Op.Val 1) ];
        [ w ~var:y (Op.Val 2); w ~var:x (Op.Val 3); r ~var:y (Op.Val 4) ];
        [ w ~var:y (Op.Val 4); r ~var:y (Op.Val 2); r ~var:y (Op.Val 4) ];
      ]
  in
  check Alcotest.bool "ryw" true (Session.holds Session.Read_your_writes h);
  check Alcotest.bool "mr" true (Session.holds Session.Monotonic_reads h);
  check Alcotest.bool "mw" true (Session.holds Session.Monotonic_writes h);
  check Alcotest.bool "but not pram" false (consistent Checker.Pram h)

let test_session_names () =
  check Alcotest.int "four guarantees" 4 (List.length Session.all_guarantees);
  check Alcotest.(list string) "names"
    [ "read-your-writes"; "monotonic-reads"; "monotonic-writes"; "writes-follow-reads" ]
    (List.map Session.guarantee_name Session.all_guarantees)

(* --- diagrams ---------------------------------------------------------------- *)

module Diagram = Repro_history.Diagram

let index_of ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else scan (i + 1)
  in
  scan 0

let test_diagram_layout () =
  let s = Diagram.render fig4_history in
  (* one row per process plus the rf legend *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check Alcotest.int "rows" 4 (List.length lines);
  check Alcotest.bool "rf legend" true
    (List.exists (fun l -> String.length l >= 3 && String.sub l 0 3 = "rf:") lines);
  (* reads sit strictly right of their sources *)
  let w_pos = Option.get (index_of ~needle:"w0(x1)2" s) in
  let r_line_offset = Option.get (index_of ~needle:"p1 |" s) in
  let r_pos = Option.get (index_of ~needle:"r1(x1)2" s) in
  let col_of pos line_start = pos - line_start in
  let w_line_offset = Option.get (index_of ~needle:"p0 |" s) in
  check Alcotest.bool "read right of write" true
    (col_of r_pos r_line_offset > col_of w_pos w_line_offset)

let test_diagram_renders_every_op =
  qcheck
    (QCheck.Test.make ~name:"diagram_renders_every_operation" ~count:100
       QCheck.small_int (fun seed ->
         let h =
           Generator.pram_consistent (Rng.create seed) Generator.default_profile
         in
         let s = Diagram.render h in
         History.ops h |> Array.for_all (fun (o : Op.t) ->
             let needle =
               Printf.sprintf "%c%d(x%d)"
                 (match o.Op.kind with Op.Read -> 'r' | Op.Write -> 'w')
                 o.Op.proc o.Op.var
             in
             index_of ~needle s <> None)))

let test_diagram_timed () =
  let t =
    Repro_history.Timed.of_lists
      [
        [ (Op.Write, 0, Op.Val 1, 0, 10) ];
        [ (Op.Read, 0, Op.Val 1, 12, 14) ];
      ]
  in
  let s = Diagram.render_timed ~width:40 t in
  check Alcotest.bool "has interval bars" true (index_of ~needle:"|=" s <> None);
  check Alcotest.bool "has scale" true (index_of ~needle:"(sim time)" s <> None);
  Alcotest.check_raises "narrow width"
    (Invalid_argument "Diagram.render_timed: width too small") (fun () ->
      ignore (Diagram.render_timed ~width:5 t))

(* --- timed histories / linearizability -------------------------------------- *)

module Timed = Repro_history.Timed

let tr ~var value invoked responded = (Op.Read, var, value, invoked, responded)
let tw ~var value invoked responded = (Op.Write, var, value, invoked, responded)

let test_timed_validation () =
  Alcotest.check_raises "bad interval" (Invalid_argument "Timed.of_lists: bad interval")
    (fun () -> ignore (Timed.of_lists [ [ tw ~var:x a 5 3 ] ]));
  Alcotest.check_raises "overlap"
    (Invalid_argument "Timed.of_lists: overlapping intervals in a sequential process")
    (fun () -> ignore (Timed.of_lists [ [ tw ~var:x a 0 5; tr ~var:x a 3 6 ] ]))

let test_timed_projection () =
  let t = Timed.of_lists [ [ tw ~var:x a 0 2; tr ~var:x a 3 4 ] ] in
  check Alcotest.int "procs" 1 (Timed.n_procs t);
  check Alcotest.int "ops" 2 (Timed.n_ops t);
  check Alcotest.bool "history projects" true
    (History.n_ops (Timed.history t) = 2)

let test_linearizable_positive () =
  (* w(x)a completes at 2; a later read returns it: linearizable *)
  let t =
    Timed.of_lists [ [ tw ~var:x a 0 2 ]; [ tr ~var:x a 5 6; tr ~var:x a 7 8 ] ]
  in
  check Alcotest.bool "linearizable" true (Timed.check_linearizable t = Timed.Linearizable)

let test_linearizable_stale_read () =
  (* the write completed strictly before the read began, yet the read
     returns the initial value: not linearizable (though sequentially
     consistent) *)
  let t = Timed.of_lists [ [ tw ~var:x a 0 2 ]; [ tr ~var:x Op.Init 5 6 ] ] in
  check Alcotest.bool "not linearizable" true
    (Timed.check_linearizable t = Timed.Not_linearizable);
  check Alcotest.bool "but sequential" true
    (consistent Checker.Sequential (Timed.history t))

let test_linearizable_overlap_freedom () =
  (* overlapping operations may order either way *)
  let t = Timed.of_lists [ [ tw ~var:x a 0 10 ]; [ tr ~var:x Op.Init 2 5 ] ] in
  check Alcotest.bool "overlap allows Init" true
    (Timed.check_linearizable t = Timed.Linearizable);
  let t' = Timed.of_lists [ [ tw ~var:x a 0 10 ]; [ tr ~var:x a 2 5 ] ] in
  check Alcotest.bool "overlap allows a too" true
    (Timed.check_linearizable t' = Timed.Linearizable)

let test_linearizable_new_old_inversion () =
  (* classic non-linearizable pattern: reader 1 sees the new value, then
     reader 2 (starting after reader 1 finished) sees the old one *)
  let t =
    Timed.of_lists
      [
        [ tw ~var:x a 0 10 ];
        [ tr ~var:x a 2 4 ];
        [ tr ~var:x Op.Init 6 8 ];
      ]
  in
  check Alcotest.bool "new-old inversion rejected" true
    (Timed.check_linearizable t = Timed.Not_linearizable)

let test_timed_equal_instants_unordered () =
  (* responded == invoked of the next op does NOT create precedence *)
  let t = Timed.of_lists [ [ tw ~var:x a 0 5 ]; [ tr ~var:x Op.Init 5 6 ] ] in
  (* the read may linearize before the write *)
  check Alcotest.bool "boundary overlap tolerated" true
    (Timed.check_linearizable t = Timed.Linearizable)

let test_linearizable_implies_sequential =
  qcheck
    (QCheck.Test.make ~name:"linearizable_implies_sequential" ~count:150
       QCheck.small_int (fun seed ->
         (* build a random timed history by sequentializing a generated
            history with random interval paddings *)
         let rng = Rng.create seed in
         let h = Generator.sequential_consistent rng Generator.default_profile in
         (* give every op a distinct global instant so it is linearizable
            by construction when read legally... not guaranteed; instead
            just check the implication on whatever verdicts arise *)
         let clock = ref 0 in
         let specs =
           List.init (History.n_procs h) (fun p ->
               History.local h p |> Array.to_list
               |> List.map (fun (o : Op.t) ->
                      let invoked = !clock in
                      clock := !clock + 1 + Rng.int rng 3;
                      (o.Op.kind, o.Op.var, o.Op.value, invoked, !clock)))
         in
         let t = Timed.of_lists specs in
         match Timed.check_linearizable t with
         | Timed.Linearizable -> consistent Checker.Sequential (Timed.history t)
         | Timed.Not_linearizable | Timed.Undecidable _ -> true))

(* --- generator properties -------------------------------------------------- *)

let profile_gen =
  QCheck.Gen.(
    let* procs = int_range 2 4 in
    let* vars = int_range 1 3 in
    let* ops = int_range 1 6 in
    let* ratio = float_range 0.0 1.0 in
    return { Generator.procs; vars; ops_per_proc = ops; read_ratio = ratio })

let profile_arb =
  QCheck.make ~print:(fun p ->
      Printf.sprintf "{procs=%d; vars=%d; ops=%d; reads=%.2f}" p.Generator.procs
        p.Generator.vars p.Generator.ops_per_proc p.Generator.read_ratio)
    profile_gen

let seeded name f = QCheck.Test.make ~name ~count:150 QCheck.(pair small_int profile_arb) f

let test_gen_pram_is_pram =
  qcheck
    (seeded "generated_pram_histories_check_pram" (fun (seed, profile) ->
         let h = Generator.pram_consistent (Rng.create seed) profile in
         consistent Checker.Pram h))

let test_gen_causal_is_causal =
  qcheck
    (seeded "generated_causal_histories_check_causal" (fun (seed, profile) ->
         let h = Generator.causal_consistent (Rng.create seed) profile in
         consistent Checker.Causal h))

let test_gen_sequential_is_sequential =
  qcheck
    (seeded "generated_sequential_histories_check_sequential" (fun (seed, profile) ->
         let h = Generator.sequential_consistent (Rng.create seed) profile in
         consistent Checker.Sequential h))

let test_gen_differentiated =
  qcheck
    (seeded "generators_produce_differentiated_histories" (fun (seed, profile) ->
         let g = Rng.create seed in
         History.is_differentiated (Generator.pram_consistent g profile)
         && History.is_differentiated (Generator.causal_consistent g profile)
         && History.is_differentiated (Generator.sequential_consistent g profile)))

(* Lattice implications: sequential => causal => {lazy-causal,
   lazy-semi-causal, pram}; pram => slow.  Tested on arbitrary histories,
   where the premise sometimes holds and sometimes not. *)
let implies antecedent consequent h =
  match Checker.check antecedent h with
  | Checker.Consistent -> consistent consequent h
  | _ -> true

let test_lattice =
  qcheck
    (seeded "criterion_lattice_implications" (fun (seed, profile) ->
         let h = Generator.arbitrary (Rng.create seed) profile in
         match History.read_from h with
         | Error _ -> QCheck.assume_fail ()
         | Ok _ ->
             implies Checker.Sequential Checker.Causal h
             && implies Checker.Causal Checker.Lazy_causal h
             && implies Checker.Causal Checker.Semi_causal h
             && implies Checker.Semi_causal Checker.Lazy_semi_causal h
             && implies Checker.Causal Checker.Pram h
             && implies Checker.Pram Checker.Slow h
             && implies Checker.Sequential Checker.Cache h))

let test_lattice_strictness () =
  (* each inclusion is strict, witnessed by the histories above *)
  check Alcotest.bool "causal not sequential" true
    (let h =
       History.of_lists
         [ [ w ~var:x a; r ~var:y Op.Init ]; [ w ~var:y b; r ~var:x Op.Init ] ]
     in
     consistent Checker.Causal h && not (consistent Checker.Sequential h));
  check Alcotest.bool "lazy-causal not causal" true
    (consistent Checker.Lazy_causal fig4_history
    && not (consistent Checker.Causal fig4_history));
  check Alcotest.bool "pram not lazy-causal" true
    (consistent Checker.Pram fig5_history
    && not (consistent Checker.Lazy_causal fig5_history));
  check Alcotest.bool "slow not pram" true
    (let h =
       History.of_lists
         [ [ w ~var:x a; w ~var:y b ]; [ r ~var:y b; r ~var:x Op.Init ] ]
     in
     consistent Checker.Slow h && not (consistent Checker.Pram h))

let test_witnesses_validate =
  qcheck
    (seeded "witnesses_always_validate" (fun (seed, profile) ->
         let h = Generator.causal_consistent (Rng.create seed) profile in
         let rf = Result.get_ok (History.read_from h) in
         let co = Orders.causal h rf in
         match Checker.witness Checker.Causal h with
         | None -> false
         | Some units ->
             List.for_all
               (fun (key, order) ->
                 match key with
                 | Checker.Proc p ->
                     let subset =
                       List.map (History.id h) (History.sub_history h p)
                     in
                     Checker.validate_serialization h ~subset ~relation:co ~order
                 | _ -> false)
               units))

let () =
  Alcotest.run "repro_history"
    [
      ( "op",
        [
          Alcotest.test_case "pretty printing" `Quick test_op_pp;
          Alcotest.test_case "write init rejected" `Quick test_op_write_init_rejected;
          Alcotest.test_case "value compare" `Quick test_op_value_compare;
        ] );
      ( "history",
        [
          Alcotest.test_case "construction" `Quick test_history_construction;
          Alcotest.test_case "sub history" `Quick test_history_sub_history;
          Alcotest.test_case "differentiated" `Quick test_history_differentiated;
          Alcotest.test_case "read from" `Quick test_history_read_from;
          Alcotest.test_case "read from dangling" `Quick test_history_read_from_dangling;
          Alcotest.test_case "read from ambiguous" `Quick test_history_read_from_ambiguous;
          test_history_read_from_matches_pair_scan;
          Alcotest.test_case "parse" `Quick test_history_parse;
          test_history_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_history_parse_errors;
          Alcotest.test_case "parse bottom forms" `Quick test_history_parse_bottom_forms;
          Alcotest.test_case "bad indices" `Quick test_history_bad_indices;
          Alcotest.test_case "criterion names" `Quick test_criterion_names_distinct;
        ] );
      ( "orders",
        [
          Alcotest.test_case "program order" `Quick test_program_order;
          Alcotest.test_case "lazy program order" `Quick test_lazy_program_order;
          Alcotest.test_case "causal via rf" `Quick test_causal_order_via_rf;
          Alcotest.test_case "pram not transitive" `Quick test_pram_not_transitive;
          Alcotest.test_case "lazy writes before" `Quick test_lazy_writes_before;
          Alcotest.test_case "respects" `Quick test_respects;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "validate" `Quick test_validate_serialization;
          Alcotest.test_case "find legality" `Quick test_find_serialization_legality;
          Alcotest.test_case "find impossible" `Quick test_find_serialization_impossible;
          test_search_vs_brute_force;
          test_search_vs_brute_force_pram;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig3 dependency chain" `Quick test_fig3_chain_dependency;
          Alcotest.test_case "fig4 lazy causal not causal" `Quick
            test_fig4_lazy_causal_not_causal;
          Alcotest.test_case "fig4 serializations S1-S3" `Quick
            test_fig4_serializations_validate;
          Alcotest.test_case "fig5 not lazy causal" `Quick test_fig5_not_lazy_causal;
          Alcotest.test_case "fig6 not lazy semi-causal" `Quick
            test_fig6_not_lazy_semi_causal;
          Alcotest.test_case "weak program order" `Quick test_weak_program_order;
          Alcotest.test_case "fig6 as printed (semi-causal)" `Quick
            test_fig6_as_printed_reconciliation;
          Alcotest.test_case "semi-causal inclusions" `Quick
            test_semi_causal_between_causal_and_lsc;
        ] );
      ( "criteria",
        [
          Alcotest.test_case "sequential positive" `Quick test_sequential_positive;
          Alcotest.test_case "sequential negative" `Quick test_sequential_negative;
          Alcotest.test_case "causal negative write order" `Quick
            test_causal_negative_write_order;
          Alcotest.test_case "pram allows disagreement" `Quick
            test_pram_allows_disagreement;
          Alcotest.test_case "slow weaker than pram" `Quick test_slow_weaker_than_pram;
          Alcotest.test_case "cache per variable" `Quick test_cache_per_variable;
          Alcotest.test_case "dangling read inconsistent" `Quick
            test_dangling_read_inconsistent;
          Alcotest.test_case "ambiguous undecidable" `Quick test_undecidable_raises;
          Alcotest.test_case "empty history" `Quick test_empty_history;
          Alcotest.test_case "witness roundtrip" `Quick test_witness_roundtrip;
        ] );
      ( "relations",
        [ test_relation_inclusions; test_relation_acyclicity ] );
      ( "session",
        [
          Alcotest.test_case "ryw violation" `Quick test_session_ryw_violation;
          Alcotest.test_case "mr violation" `Quick test_session_mr_violation;
          Alcotest.test_case "mw violation" `Quick test_session_mw_violation;
          Alcotest.test_case "wfr violation" `Quick test_session_wfr_violation;
          test_session_pram_implies_ryw_mr_mw;
          test_session_causal_implies_all;
          Alcotest.test_case "conjunction weaker than pram" `Quick
            test_session_conjunction_weaker_than_pram;
          Alcotest.test_case "names" `Quick test_session_names;
        ] );
      ( "diagram",
        [
          Alcotest.test_case "layout" `Quick test_diagram_layout;
          test_diagram_renders_every_op;
          Alcotest.test_case "timed" `Quick test_diagram_timed;
        ] );
      ( "timed",
        [
          Alcotest.test_case "validation" `Quick test_timed_validation;
          Alcotest.test_case "projection" `Quick test_timed_projection;
          Alcotest.test_case "linearizable positive" `Quick test_linearizable_positive;
          Alcotest.test_case "stale read rejected" `Quick test_linearizable_stale_read;
          Alcotest.test_case "overlap freedom" `Quick test_linearizable_overlap_freedom;
          Alcotest.test_case "new-old inversion" `Quick
            test_linearizable_new_old_inversion;
          Alcotest.test_case "equal instants unordered" `Quick
            test_timed_equal_instants_unordered;
          test_linearizable_implies_sequential;
        ] );
      ( "properties",
        [
          test_gen_pram_is_pram;
          test_gen_causal_is_causal;
          test_gen_sequential_is_sequential;
          test_gen_differentiated;
          test_lattice;
          Alcotest.test_case "lattice strictness" `Quick test_lattice_strictness;
          test_witnesses_validate;
        ] );
    ]
