(* Tests for Repro_experiments: every table regenerates with the expected
   shape, and the adversarial scenario bank witnesses exactly the
   violations the paper's figures predict. *)

module Experiment = Repro_experiments.Experiment
module Registry = Repro_core.Registry
module Checker = Repro_history.Checker
module History = Repro_history.History

let check = Alcotest.check

let seed = 77

let consistent criterion h =
  match Checker.check criterion h with
  | Checker.Consistent -> true
  | Checker.Inconsistent -> false
  | Checker.Undecidable _ -> Alcotest.fail "undecidable history"

let find_spec name =
  match Registry.find name with
  | Some spec -> spec
  | None -> Alcotest.failf "unknown protocol %s" name

let scenario spec_name scenario_name =
  match List.assoc_opt scenario_name (Experiment.adversarial_histories (find_spec spec_name) ~seed) with
  | Some h -> h
  | None -> Alcotest.failf "scenario %s missing for %s" scenario_name spec_name

(* --- scenario bank ----------------------------------------------------------- *)

let test_hoop_leak_verdicts () =
  (* causal-partial pays the broadcast and stays causal; the efficient
     protocols violate causality exactly as Theorem 1 predicts *)
  check Alcotest.bool "causal-partial stays causal" true
    (consistent Checker.Causal (scenario "causal-partial" "hoop-leak"));
  List.iter
    (fun name ->
      let h = scenario name "hoop-leak" in
      check Alcotest.bool (name ^ " violates causal") false
        (consistent Checker.Causal h);
      check Alcotest.bool (name ^ " stays pram") true (consistent Checker.Pram h);
      (* the hoop-leak history is still lazy-causal: the two final reads
         are on different variables, hence li-unrelated *)
      check Alcotest.bool (name ^ " stays lazy-causal") true
        (consistent Checker.Lazy_causal h))
    [ "causal-adhoc"; "pram-partial"; "slow-partial" ]

let test_fig5_verdicts () =
  check Alcotest.bool "causal-partial stays lazy-causal" true
    (consistent Checker.Lazy_causal (scenario "causal-partial" "fig5"));
  List.iter
    (fun name ->
      let h = scenario name "fig5" in
      check Alcotest.bool (name ^ " violates lazy-causal") false
        (consistent Checker.Lazy_causal h);
      check Alcotest.bool (name ^ " stays pram") true (consistent Checker.Pram h);
      (* Fig. 5's chain needs a raw read-from hop, which lazy-semi-causal
         does not contain: the history is still lsc *)
      check Alcotest.bool (name ^ " stays lazy-semi-causal") true
        (consistent Checker.Lazy_semi_causal h))
    [ "causal-adhoc"; "pram-partial"; "slow-partial" ]

let test_fig6_verdicts () =
  check Alcotest.bool "causal-partial stays lsc" true
    (consistent Checker.Lazy_semi_causal (scenario "causal-partial" "fig6"));
  List.iter
    (fun name ->
      let h = scenario name "fig6" in
      check Alcotest.bool (name ^ " violates lazy-semi-causal") false
        (consistent Checker.Lazy_semi_causal h);
      check Alcotest.bool (name ^ " stays pram") true (consistent Checker.Pram h))
    [ "causal-adhoc"; "pram-partial"; "slow-partial" ]

let test_scenarios_empty_for_incompatible () =
  check Alcotest.int "blocking protocols skip scenarios" 0
    (List.length (Experiment.adversarial_histories (find_spec "atomic-primary") ~seed));
  check Alcotest.int "full-replication protocols skip scenarios" 0
    (List.length (Experiment.adversarial_histories (find_spec "causal-full") ~seed))

(* --- table shapes --------------------------------------------------------------- *)

let row_count table = List.length table.Experiment.rows

let cell table ~row ~col = List.nth (List.nth table.Experiment.rows row) col

let test_scaling_shape () =
  let t = Experiment.scaling ~sizes:[ 4; 8 ] ~seed () in
  check Alcotest.int "rows = sizes x protocols" 10 (row_count t);
  (* pram control bytes must not grow with n: column 4 is ctrl B/write *)
  let pram_rows =
    List.filter (fun row -> List.nth row 1 = "pram-partial") t.Experiment.rows
  in
  let per_write = List.map (fun row -> List.nth row 4) pram_rows in
  check Alcotest.bool "pram ctrl/write constant" true
    (List.sort_uniq compare per_write |> List.length = 1);
  (* causal-full control grows strictly *)
  let ctrl_of name =
    List.filter (fun row -> List.nth row 1 = name) t.Experiment.rows
    |> List.map (fun row -> int_of_string (List.nth row 3))
  in
  check Alcotest.bool "causal ctrl grows" true
    (match ctrl_of "causal-full" with [ a; b ] -> b > a | _ -> false);
  (* delta compression is strictly cheaper than full vectors, but still
     grows with n (it does not evade Theorem 1) *)
  (match (ctrl_of "causal-full", ctrl_of "causal-delta") with
  | [ f4; f8 ], [ d4; d8 ] ->
      check Alcotest.bool "delta < full (n=4)" true (d4 < f4);
      check Alcotest.bool "delta < full (n=8)" true (d8 < f8);
      check Alcotest.bool "delta grows" true (d8 > d4)
  | _ -> Alcotest.fail "missing causal rows")

let test_mention_audit_shape () =
  let t = Experiment.mention_audit ~seed () in
  check Alcotest.int "4 variables" 4 (row_count t);
  (* Theorem 1 column predicts everyone on the 4-cycle *)
  for row = 0 to 3 do
    check Alcotest.string "thm1 prediction" "{0, 1, 2, 3}" (cell t ~row ~col:2)
  done

let test_criterion_matrix_staircase () =
  let t = Experiment.criterion_matrix ~seed:20_240_601 () in
  let row_of name =
    List.find (fun row -> List.hd row = name) t.Experiment.rows
  in
  (* guarantee column is always yes *)
  let criteria = List.map Checker.criterion_name Checker.all_criteria in
  let col_of crit =
    match List.find_index (String.equal crit) criteria with
    | Some i -> i + 1
    | None -> Alcotest.fail "criterion column missing"
  in
  List.iter
    (fun spec ->
      let row = row_of spec.Registry.name in
      let guarantee = Checker.criterion_name spec.Registry.guarantees in
      check Alcotest.string
        (spec.Registry.name ^ " guarantee cell")
        "yes"
        (List.nth row (col_of guarantee)))
    Registry.all;
  (* slow-partial must fail everything stronger than slow *)
  let slow_row = row_of "slow-partial" in
  List.iter
    (fun crit ->
      check Alcotest.string ("slow fails " ^ crit) "no" (List.nth slow_row (col_of crit)))
    [ "sequential"; "causal"; "lazy-causal"; "lazy-semi-causal"; "pram" ]

let test_bellman_ford_table () =
  let t = Experiment.bellman_ford ~seed () in
  check Alcotest.bool "has rows" true (row_count t > 0);
  (* every pram-or-stronger row reports exact distances *)
  List.iter
    (fun row ->
      let protocol = List.nth row 1 and verdict = List.nth row 2 in
      if protocol <> "slow-partial" then
        check Alcotest.string (protocol ^ " exact") "exact" verdict)
    t.Experiment.rows

let test_adhoc_ablation_table () =
  let t = Experiment.adhoc_ablation ~seed () in
  check Alcotest.int "three rows" 3 (row_count t);
  (* off-clique traffic is always 0: the protocol is efficient *)
  List.iter
    (fun row -> check Alcotest.string "no off-clique traffic" "0" (List.nth row 2))
    t.Experiment.rows;
  (* the adversarial row witnesses the violation *)
  check Alcotest.bool "violation witnessed" true
    (String.length (List.nth (List.nth t.Experiment.rows 2) 3) > 0
    && List.nth (List.nth t.Experiment.rows 2) 3 <> "causal (unexpected)")

let test_op_costs_table () =
  let t = Experiment.op_costs ~seed () in
  check Alcotest.int "one row per protocol" (List.length Registry.all) (row_count t)

let test_loss_sweep_table () =
  let t = Experiment.loss_sweep ~seed () in
  check Alcotest.int "five drop rates" 5 (row_count t);
  List.iter
    (fun row ->
      (* delivery is always complete and every run is PRAM *)
      (match String.split_on_char '/' (List.nth row 4) with
      | [ got; want ] -> check Alcotest.string "all applied" want got
      | _ -> Alcotest.fail "bad applied/expected cell");
      check Alcotest.string "pram" "yes" (List.nth row 5))
    t.Experiment.rows;
  (* loss stays out of the protocol lane and shows in the overhead lane *)
  let column i = List.map (fun row -> List.nth row i) t.Experiment.rows in
  let msgs = column 1 in
  check Alcotest.(list string) "msgs/write equal on every row"
    (List.map (fun _ -> List.hd msgs) msgs)
    msgs;
  let overhead = List.map float_of_string (column 2) in
  check Alcotest.bool "overhead at 40% exceeds 0%'s" true
    (List.nth overhead 4 > List.hd overhead)

let test_bottleneck_table () =
  let t = Experiment.bottleneck ~seed () in
  check Alcotest.int "four sizes" 4 (row_count t);
  (* the sequencer's completion time grows monotonically with n *)
  let seq_times =
    List.map (fun row -> int_of_string (List.nth row 1)) t.Experiment.rows
  in
  check Alcotest.bool "sequencer time grows" true
    (List.sort compare seq_times = seq_times)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_render_smoke () =
  let t = Experiment.mention_audit ~seed () in
  let s = Experiment.render t in
  check Alcotest.bool "contains id" true (contains ~needle:"T1" s);
  check Alcotest.bool "contains a note" true (contains ~needle:"note:" s)

let test_find_and_ids () =
  check Alcotest.int "twelve experiments" 12 (List.length Experiment.ids);
  check Alcotest.bool "find case-insensitive" true (Experiment.find "e1" <> None);
  check Alcotest.bool "find scaled tier" true (Experiment.find "e1x" <> None);
  check Alcotest.bool "unknown" true (Experiment.find "Z9" = None)

let () =
  Alcotest.run "repro_experiments"
    [
      ( "scenarios",
        [
          Alcotest.test_case "hoop-leak verdicts" `Quick test_hoop_leak_verdicts;
          Alcotest.test_case "fig5 verdicts" `Quick test_fig5_verdicts;
          Alcotest.test_case "fig6 verdicts" `Quick test_fig6_verdicts;
          Alcotest.test_case "incompatible protocols skip" `Quick
            test_scenarios_empty_for_incompatible;
        ] );
      ( "tables",
        [
          Alcotest.test_case "E1 scaling shape" `Quick test_scaling_shape;
          Alcotest.test_case "T1 mention audit shape" `Quick test_mention_audit_shape;
          Alcotest.test_case "A2 staircase" `Slow test_criterion_matrix_staircase;
          Alcotest.test_case "E2 bellman-ford" `Quick test_bellman_ford_table;
          Alcotest.test_case "A1 adhoc ablation" `Quick test_adhoc_ablation_table;
          Alcotest.test_case "C1 op costs" `Quick test_op_costs_table;
          Alcotest.test_case "L1 loss sweep" `Quick test_loss_sweep_table;
          Alcotest.test_case "B1 bottleneck" `Quick test_bottleneck_table;
          Alcotest.test_case "render smoke" `Quick test_render_smoke;
          Alcotest.test_case "find and ids" `Quick test_find_and_ids;
        ] );
    ]
