(* Tests for Repro_cluster.Supervisor: the forked-child contract, report
   collection, crash respawn, the watchdog, the ending report and the
   loopback launcher's listener hygiene, with plain child bodies — no
   protocol.

   This executable forks; it must never create a domain before doing so. *)

module Supervisor = Repro_cluster.Supervisor
module Chaos = Repro_transport.Chaos
module Fault = Repro_msgpass.Fault

let check = Alcotest.check

let plan_of text =
  match Fault.Plan.parse text with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" text msg

let ending_text show = function
  | Supervisor.Finished r -> "finished " ^ show r
  | Supervisor.Crashed msg -> "crashed: " ^ msg
  | Supervisor.Injected_crash -> "injected crash"
  | Supervisor.Put_down -> "put down"

let endings show =
  Alcotest.(
    array
      (of_pp (fun ppf e -> Format.pp_print_string ppf (ending_text show e))))

let int_endings = endings string_of_int

let no_children_left () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "a child is left behind (waitpid gave %d)" pid

let slot = Printf.sprintf "slot %d"

let outcome_t = Alcotest.(result (array int) string)

let test_finished_and_crashed () =
  let sup = Supervisor.create ~deadline_ms:10_000 () in
  Supervisor.spawn sup (fun ~incarnation:_ -> 42);
  Supervisor.spawn sup (fun ~incarnation:_ -> raise (Supervisor.Crash "boom"));
  let endings = Supervisor.wait sup in
  check int_endings "endings"
    [| Supervisor.Finished 42; Supervisor.Crashed "boom" |]
    endings;
  check Alcotest.int "no restarts" 0 (Supervisor.restarts sup);
  no_children_left ();
  check outcome_t "every slot finished" (Ok [| 42 |])
    (Supervisor.outcome ~name:slot (Array.sub endings 0 1));
  check outcome_t "a crash is one line, no prefix" (Error "slot 1: boom")
    (Supervisor.outcome ~name:slot endings);
  check outcome_t "slot order, each ending's one text"
    (Error "slot 1: boom\nslot 2: injected crash (no restart scheduled)")
    (Supervisor.outcome ~name:slot
       (Array.append endings [| Supervisor.Injected_crash |]))

let test_respawn_once () =
  let respawned = ref [] in
  let sup =
    Supervisor.create ~deadline_ms:10_000 ~chaos:(plan_of "crash=0@1+50")
      ~on_respawn:(fun i -> respawned := i :: !respawned)
      ()
  in
  Supervisor.spawn sup (fun ~incarnation ->
      if incarnation = 0 then raise (Chaos.Injected_crash 0) else incarnation);
  check int_endings "respawned child reports its incarnation"
    [| Supervisor.Finished 1 |]
    (Supervisor.wait sup);
  check Alcotest.int "one restart counted" 1 (Supervisor.restarts sup);
  check Alcotest.(list int) "one respawn callback" [ 0 ] !respawned;
  no_children_left ()

let test_injected_without_restart () =
  let sup = Supervisor.create ~deadline_ms:10_000 () in
  Supervisor.spawn sup (fun ~incarnation:_ -> Unix._exit 42);
  check int_endings "exit 42, nothing scheduled" [| Supervisor.Injected_crash |]
    (Supervisor.wait sup);
  check Alcotest.int "no restarts" 0 (Supervisor.restarts sup)

let test_exit_without_report () =
  let sup = Supervisor.create ~deadline_ms:10_000 () in
  Supervisor.spawn sup (fun ~incarnation:_ -> Unix._exit 3);
  check int_endings "exit 3"
    [| Supervisor.Crashed "exited without reporting (exit 3)" |]
    (Supervisor.wait sup)

let test_large_reports () =
  (* each report is over a pipe buffer: a collector that blocked on one
     child while another filled its pipe would deadlock *)
  let sup = Supervisor.create ~deadline_ms:20_000 () in
  let report i = String.make (100 * 1024) (Char.chr (Char.code 'a' + i)) in
  for i = 0 to 2 do
    Supervisor.spawn sup (fun ~incarnation:_ -> report i)
  done;
  check
    (endings (fun s -> Printf.sprintf "%d bytes" (String.length s)))
    "three large reports"
    (Array.init 3 (fun i -> Supervisor.Finished (report i)))
    (Supervisor.wait sup)

let test_watchdog_puts_down () =
  (* slot 0 never exits; slot 1 crashes and waits for a restart far past
     the deadline, so the watchdog finds it already reaped *)
  let sup =
    Supervisor.create ~deadline_ms:500 ~chaos:(plan_of "crash=1@1+60000") ()
  in
  let rec forever () =
    Unix.sleepf 1.;
    forever ()
  in
  Supervisor.spawn sup (fun ~incarnation:_ -> forever ());
  Supervisor.spawn sup (fun ~incarnation:_ -> raise (Chaos.Injected_crash 1));
  let t0 = Unix.gettimeofday () in
  let endings = Supervisor.wait sup in
  check int_endings "both put down"
    [| Supervisor.Put_down; Supervisor.Put_down |]
    endings;
  check Alcotest.bool "within a few seconds" true
    (Unix.gettimeofday () -. t0 < 5.);
  no_children_left ();
  check outcome_t "wedged, one line per slot put down"
    (Error
       "wedged: slot 0: put down by the supervisor watchdog\n\
        slot 1: put down by the supervisor watchdog")
    (Supervisor.outcome ~name:slot endings);
  check outcome_t "a slot that failed on its own comes first"
    (Error
       "wedged: slot 2: boom\nslot 0: put down by the supervisor watchdog\n\
        slot 1: put down by the supervisor watchdog")
    (Supervisor.outcome ~name:slot
       (Array.append endings [| Supervisor.Crashed "boom" |]))

(* the loopback launcher: node i's child keeps listener i open and closes
   every other one, so it accepts only on its own socket *)
let test_loopback_hygiene () =
  let listeners, peers = Supervisor.loopback 3 in
  let sup = Supervisor.create ~deadline_ms:10_000 () in
  for self = 0 to 2 do
    Supervisor.spawn_node sup listeners ~self (fun ~incarnation:_ ->
        Array.map
          (fun fd ->
            match Unix.fstat fd with
            | _ -> true
            | exception Unix.Unix_error (Unix.EBADF, _, _) -> false)
          listeners)
  done;
  let got = Supervisor.wait sup in
  Supervisor.close_all (Array.to_list listeners);
  check
    (endings (fun open_ ->
         String.concat "," (Array.to_list (Array.map string_of_bool open_))))
    "each child has only its own listener open"
    (Array.init 3 (fun self ->
         Supervisor.Finished (Array.init 3 (fun i -> i = self))))
    got;
  check Alcotest.int "three distinct addresses" 3
    (List.length (List.sort_uniq compare (Array.to_list peers)));
  no_children_left ()

let () =
  Alcotest.run "supervisor"
    [
      ( "child contract",
        [
          Alcotest.test_case "report and crash message returned" `Quick
            test_finished_and_crashed;
          Alcotest.test_case "exit 42 with a restart respawns once" `Quick
            test_respawn_once;
          Alcotest.test_case "exit 42 without a restart" `Quick
            test_injected_without_restart;
          Alcotest.test_case "exit without a report" `Quick
            test_exit_without_report;
        ] );
      ( "collection",
        [
          Alcotest.test_case "reports over 64 KiB, no deadlock" `Quick
            test_large_reports;
          Alcotest.test_case "watchdog puts down, leaves no zombie" `Quick
            test_watchdog_puts_down;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "each node keeps only its own listener" `Quick
            test_loopback_hygiene;
        ] );
    ]
