(* Tests for Repro_durable: CRC32, durable blobs, and the write-ahead
   log — framing round-trips, torn-write recovery at every byte boundary,
   crash-point schedules through the rotation protocol, and a forked
   kill-9 oracle whose recovered digest must match the synced prefix the
   child reported before dying.

   Every WAL test works in its own fresh directory under the build dir's
   tmp; crash points are disarmed after each armed test so suites can
   share the process. *)

module Crc32 = Repro_durable.Crc32
module Fsio = Repro_durable.Fsio
module Wal = Repro_durable.Wal
module Fault = Repro_msgpass.Fault

let check = Alcotest.check

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-wal-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  rm d;
  d

let payload i = Printf.sprintf "op-%04d:%s" i (String.make (i mod 23) 'x')

let load_ok dir =
  match Wal.load ~dir with
  | Ok r -> r
  | Error e -> Alcotest.failf "Wal.load %s: %s" dir e

(* ---------- CRC32 ---------- *)

let test_crc_vector () =
  (* the IEEE 802.3 check value every CRC32 implementation must hit *)
  check Alcotest.int "crc32(123456789)" 0xCBF43926 (Crc32.string "123456789")

let test_crc_chaining () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"crc chaining" ~count:200
       QCheck.(pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 64)))
       (fun (a, b) ->
         let whole = Crc32.string (a ^ b) in
         let chained =
           let ba = Bytes.of_string a and bb = Bytes.of_string b in
           Crc32.update
             (Crc32.update Crc32.init ba ~pos:0 ~len:(Bytes.length ba))
             bb ~pos:0 ~len:(Bytes.length bb)
         in
         whole = chained))

(* ---------- Blob ---------- *)

let test_blob_roundtrip () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "x.blob" in
  Fsio.Blob.write ~path ~magic:"TSTB" ~version:3 ~meta:(42, 7) "hello blob";
  (match Fsio.Blob.read ~path ~magic:"TSTB" ~version:3 with
  | Ok ((m1, m2), p) ->
      check Alcotest.int "meta1" 42 m1;
      check Alcotest.int "meta2" 7 m2;
      check Alcotest.string "payload" "hello blob" p
  | Error e -> Alcotest.failf "blob read: %s" e);
  (match Fsio.Blob.read ~path ~magic:"OTHR" ~version:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign magic accepted");
  (match Fsio.Blob.read ~path ~magic:"TSTB" ~version:4 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted")

let test_blob_corruption () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "x.blob" in
  let payload = String.init 100 (fun i -> Char.chr (i mod 256)) in
  Fsio.Blob.write ~path ~magic:"TSTB" ~version:1 ~meta:(1, 2) payload;
  let size = (Unix.stat path).Unix.st_size in
  (* flip one byte anywhere: read must reject, never mis-deliver *)
  for off = 0 to size - 1 do
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
    let b = Bytes.create 1 in
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.read fd b 0 1);
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd;
    (match Fsio.Blob.read ~path ~magic:"TSTB" ~version:1 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "corrupt blob accepted (byte %d flipped)" off);
    (* restore *)
    let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write fd b 0 1);
    Unix.close fd
  done

(* ---------- WAL round-trip ---------- *)

let test_wal_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"wal round-trip" ~count:30
       QCheck.(small_list (string_of_size Gen.(0 -- 80)))
       (fun payloads ->
         let dir = fresh_dir () in
         let t, r0 = Wal.open_ ~dir ~policy:(Wal.Every 3) () in
         assert (r0.Wal.r_entries = []);
         List.iteri
           (fun i p ->
             let seq = Wal.append t p in
             assert (seq = i))
           payloads;
         Wal.close t;
         let r = load_ok dir in
         r.Wal.r_entries = List.mapi (fun i p -> (i, p)) payloads
         && r.Wal.r_next = List.length payloads
         && r.Wal.r_dropped_bytes = 0))

let test_wal_reopen_continues () =
  let dir = fresh_dir () in
  let t, _ = Wal.open_ ~dir () in
  for i = 0 to 4 do
    ignore (Wal.append t (payload i))
  done;
  Wal.close t;
  let t, r = Wal.open_ ~dir () in
  check Alcotest.int "recovered entries" 5 (List.length r.Wal.r_entries);
  check Alcotest.int "next seq resumes" 5 r.Wal.r_next;
  let seq = Wal.append t (payload 5) in
  check Alcotest.int "append continues the sequence" 5 seq;
  Wal.close t;
  let r = load_ok dir in
  check Alcotest.int "all six" 6 (List.length r.Wal.r_entries)

let test_wal_fresh_wipes () =
  let dir = fresh_dir () in
  let t, _ = Wal.open_ ~dir () in
  ignore (Wal.append t "stale");
  Wal.close t;
  let t, r = Wal.open_ ~dir ~fresh:true () in
  check Alcotest.int "fresh start" 0 (List.length r.Wal.r_entries);
  Wal.close t

(* ---------- damaged-tail recovery ---------- *)

let log_path dir = Filename.concat dir ((load_ok dir).Wal.r_log)

let test_wal_torn_tail_every_boundary () =
  (* build a log of k records, then truncate at EVERY byte inside the
     last frame: recovery must yield exactly k-1 entries, never an error,
     never a short mis-read *)
  let dir = fresh_dir () in
  let k = 6 in
  let t, _ = Wal.open_ ~dir () in
  for i = 0 to k - 1 do
    ignore (Wal.append t (payload i))
  done;
  Wal.close t;
  let path = log_path dir in
  let full = (Unix.stat path).Unix.st_size in
  let last_frame = Wal.record_overhead + String.length (payload (k - 1)) in
  let golden = Bytes.create full in
  let ic = open_in_bin path in
  really_input ic golden 0 full;
  close_in ic;
  for cut = full - last_frame to full - 1 do
    let oc = open_out_bin path in
    output_bytes oc (Bytes.sub golden 0 cut);
    close_out oc;
    let r = load_ok dir in
    if List.length r.Wal.r_entries <> k - 1 then
      Alcotest.failf "cut at %d: recovered %d entries, want %d" cut
        (List.length r.Wal.r_entries)
        (k - 1);
    check Alcotest.int
      (Printf.sprintf "dropped bytes at cut %d" cut)
      (cut - (full - last_frame))
      r.Wal.r_dropped_bytes
  done;
  (* and reopening after a torn tail truncates + keeps appending cleanly *)
  let oc = open_out_bin path in
  output_bytes oc (Bytes.sub golden 0 (full - (last_frame / 2)));
  close_out oc;
  let t, r = Wal.open_ ~dir () in
  check Alcotest.int "reopen after tear" (k - 1) (List.length r.Wal.r_entries);
  let seq = Wal.append t "replacement" in
  check Alcotest.int "tear reuses the torn seqno" (k - 1) seq;
  Wal.close t;
  let r = load_ok dir in
  check Alcotest.int "healed" k (List.length r.Wal.r_entries)

let test_wal_corrupt_record_rejected () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"corrupt byte drops a suffix, never garbage"
       ~count:60
       QCheck.(pair (int_bound 1000000) (int_bound 7))
       (fun (noise, k10) ->
         let k = 3 + k10 in
         let dir = fresh_dir () in
         let t, _ = Wal.open_ ~dir () in
         for i = 0 to k - 1 do
           ignore (Wal.append t (payload i))
         done;
         Wal.close t;
         let path = log_path dir in
         let size = (Unix.stat path).Unix.st_size in
         (* flip one byte somewhere in the record region *)
         let off = 26 + (noise mod (size - 26)) in
         let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
         let b = Bytes.create 1 in
         ignore (Unix.lseek fd off Unix.SEEK_SET);
         ignore (Unix.read fd b 0 1);
         Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x55));
         ignore (Unix.lseek fd off Unix.SEEK_SET);
         ignore (Unix.write fd b 0 1);
         Unix.close fd;
         let r = load_ok dir in
         (* the recovered list must be a prefix of the originals *)
         List.length r.Wal.r_entries < k
         && List.for_all
              (fun (seq, p) -> p = payload seq)
              r.Wal.r_entries))

(* ---------- rotation + crash points ---------- *)

let with_armed ~point ?(powercut = false) f =
  let crashed = ref false in
  Fsio.Crashpoint.arm ~point ~powercut (fun () ->
      crashed := true;
      raise Exit);
  Fun.protect
    ~finally:(fun () -> Fsio.Crashpoint.disarm ())
    (fun () ->
      (try f () with Exit -> ());
      !crashed)

let test_wal_checkpoint_compacts () =
  let dir = fresh_dir () in
  let t, _ = Wal.open_ ~dir () in
  for i = 0 to 9 do
    ignore (Wal.append t (payload i))
  done;
  Wal.checkpoint t "state@10";
  ignore (Wal.append t (payload 10));
  Wal.close t;
  let r = load_ok dir in
  check Alcotest.int "generation advanced" 1 r.Wal.r_gen;
  check Alcotest.int "base past the compacted ops" 10 r.Wal.r_base;
  check (Alcotest.option Alcotest.string) "checkpoint payload" (Some "state@10")
    r.Wal.r_checkpoint;
  check Alcotest.int "only the tail survives as records" 1
    (List.length r.Wal.r_entries);
  check Alcotest.int "tail seqno continues" 10 (fst (List.hd r.Wal.r_entries))

let rotation_points =
  [ "ck.synced"; "ck.renamed"; "rotate.log.created"; "rotate.done" ]

let test_wal_rotation_crash_points () =
  (* kill the process (simulated by Exit) at each step of the rotation:
     the directory must always load, and the (checkpoint, tail) pair must
     cover all ten pre-checkpoint records one way or the other *)
  List.iter
    (fun point ->
      let dir = fresh_dir () in
      let t, _ = Wal.open_ ~dir () in
      for i = 0 to 9 do
        ignore (Wal.append t (payload i))
      done;
      let crashed =
        with_armed ~point (fun () -> Wal.checkpoint t "state@10")
      in
      if not crashed then Alcotest.failf "%s never fired" point;
      (try Wal.close t with _ -> ());
      let r = load_ok dir in
      (match r.Wal.r_checkpoint with
      | Some p ->
          (* the new checkpoint became durable: records are superseded *)
          check Alcotest.string
            (Printf.sprintf "%s: checkpoint payload" point)
            "state@10" p;
          check Alcotest.int (Printf.sprintf "%s: base" point) 10 r.Wal.r_base
      | None ->
          (* died before the blob replace became durable: the old log must
             still replay every record *)
          check Alcotest.int
            (Printf.sprintf "%s: full tail" point)
            10
            (List.length r.Wal.r_entries));
      (* and the directory must reopen for appending, whatever the state *)
      let t, _ = Wal.open_ ~dir () in
      ignore (Wal.append t "after-recovery");
      Wal.close t;
      ignore (load_ok dir))
    rotation_points

let test_wal_append_crash_points () =
  List.iter
    (fun (point, powercut, expect_entries) ->
      let dir = fresh_dir () in
      let t, _ = Wal.open_ ~dir ~policy:(Wal.Every 2) () in
      ignore (Wal.append t (payload 0));
      ignore (Wal.append t (payload 1));
      (* two records synced; now crash inside the third append *)
      let crashed =
        with_armed ~point ~powercut (fun () -> ignore (Wal.append t (payload 2)))
      in
      if not crashed then Alcotest.failf "%s never fired" point;
      let r = load_ok dir in
      check Alcotest.int
        (Printf.sprintf "%s%s: entries" point (if powercut then "!" else ""))
        expect_entries
        (List.length r.Wal.r_entries);
      List.iter (fun (seq, p) -> assert (p = payload seq)) r.Wal.r_entries)
    [
      ("append.pre", false, 2);
      (* torn frame: the half-written record must be dropped *)
      ("append.mid", false, 2);
      (* full frame written but unsynced: survives a process crash... *)
      ("append.post", false, 3);
      (* ...but not a power cut, which reverts to the synced floor *)
      ("append.post", true, 2);
      ("append.mid", true, 2);
    ]

let test_wal_sync_crash_points () =
  let dir = fresh_dir () in
  let t, _ = Wal.open_ ~dir ~policy:Wal.Never () in
  ignore (Wal.append t (payload 0));
  ignore (Wal.append t (payload 1));
  let crashed = with_armed ~point:"sync.pre" (fun () -> Wal.sync t) in
  if not crashed then Alcotest.fail "sync.pre never fired";
  (* process crash before the fsync: the OS cache still has the bytes *)
  let r = load_ok dir in
  check Alcotest.int "sync.pre: entries" 2 (List.length r.Wal.r_entries);
  (* power cut before the fsync: both records vanish *)
  let dir = fresh_dir () in
  let t, _ = Wal.open_ ~dir ~policy:Wal.Never () in
  ignore (Wal.append t (payload 0));
  ignore (Wal.append t (payload 1));
  let crashed =
    with_armed ~point:"sync.pre" ~powercut:true (fun () -> Wal.sync t)
  in
  if not crashed then Alcotest.fail "sync.pre! never fired";
  let r = load_ok dir in
  check Alcotest.int "sync.pre!: entries" 0 (List.length r.Wal.r_entries)

(* ---------- forked kill-9 oracle ---------- *)

let test_wal_kill9_digest () =
  (* a child appends deterministic records with group commit Every 4 and
     reports its synced count over a pipe after each sync; the parent
     SIGKILLs it mid-stream.  Recovery must hold at least the last
     reported (synced) prefix, all payloads intact, and two independent
     loads must produce the same digest. *)
  let dir = fresh_dir () in
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rfd;
      let t, _ = Wal.open_ ~dir ~policy:(Wal.Every 4) () in
      (try
         for i = 0 to 9999 do
           ignore (Wal.append t (payload i));
           if (i + 1) mod 4 = 0 then begin
             (* synced: tell the parent the durable floor *)
             let msg = Printf.sprintf "%d\n" (i + 1) in
             ignore (Unix.write_substring wfd msg 0 (String.length msg))
           end
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wfd;
      let buf = Bytes.create 4096 in
      let acc = Buffer.create 256 in
      let floor = ref 0 in
      (* drain reports until we have seen at least 5 syncs *)
      let rec drain () =
        let n = Unix.read rfd buf 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes acc buf 0 n;
          String.split_on_char '\n' (Buffer.contents acc)
          |> List.iter (fun l ->
                 match int_of_string_opt l with
                 | Some v -> floor := max !floor v
                 | None -> ());
          if !floor < 20 then drain ()
        end
      in
      drain ();
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Unix.close rfd;
      let r1 = load_ok dir in
      let r2 = load_ok dir in
      check Alcotest.string "two loads agree" (Wal.digest r1) (Wal.digest r2);
      let n = List.length r1.Wal.r_entries in
      if n < !floor then
        Alcotest.failf "recovered %d entries < reported durable floor %d" n
          !floor;
      List.iter
        (fun (seq, p) ->
          if p <> payload seq then
            Alcotest.failf "entry %d corrupted after kill -9" seq)
        r1.Wal.r_entries;
      (* reopening repairs any torn tail and the digest stays stable *)
      let t, r3 = Wal.open_ ~dir () in
      Wal.close t;
      check Alcotest.string "open_ preserves the recovered state"
        (Wal.digest r1) (Wal.digest r3)

(* ---------- dcrash plan clauses ---------- *)

let test_dcrash_parse () =
  let p =
    match Fault.Plan.parse "seed=3,dcrash=1:sync.pre@2+250" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (match Fault.Plan.dcrash_for p 1 with
  | Some c ->
      check Alcotest.string "point" "sync.pre" c.Fault.Plan.point;
      check Alcotest.bool "no powercut" false c.Fault.Plan.powercut;
      check Alcotest.int "after" 2 c.Fault.Plan.after_hits;
      check (Alcotest.option Alcotest.int) "restart" (Some 250)
        c.Fault.Plan.drestart_after
  | None -> Alcotest.fail "dcrash clause lost");
  check (Alcotest.option Alcotest.bool) "other nodes unaffected" None
    (Option.map (fun _ -> true) (Fault.Plan.dcrash_for p 0));
  (* powercut marker, no restart *)
  let p =
    match Fault.Plan.parse "dcrash=0:append.mid!@1" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse powercut: %s" e
  in
  (match Fault.Plan.dcrash_for p 0 with
  | Some c ->
      check Alcotest.bool "powercut" true c.Fault.Plan.powercut;
      check (Alcotest.option Alcotest.int) "no restart" None
        c.Fault.Plan.drestart_after
  | None -> Alcotest.fail "powercut clause lost")

let test_dcrash_roundtrip () =
  List.iter
    (fun text ->
      match Fault.Plan.parse text with
      | Error e -> Alcotest.failf "parse %S: %s" text e
      | Ok p -> (
          let rendered = Fault.Plan.to_string p in
          match Fault.Plan.parse rendered with
          | Error e -> Alcotest.failf "re-parse %S: %s" rendered e
          | Ok p' ->
              check Alcotest.string
                (Printf.sprintf "round-trip of %S" text)
                rendered (Fault.Plan.to_string p')))
    [
      "dcrash=1:sync.pre@2+250";
      "dcrash=0:append.mid!@1";
      "seed=9,drop=0.05,dcrash=2:rotate.done@1+100";
      "dcrash=0:ck.renamed!@3+50,crash=1@6+300";
    ]

let test_dcrash_validation () =
  (* every advertised crash point parses; an unknown one is rejected *)
  List.iter
    (fun pt ->
      match Fault.Plan.parse (Printf.sprintf "dcrash=0:%s@1+100" pt) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "point %s rejected: %s" pt e)
    Fsio.Crashpoint.points;
  List.iter
    (fun text ->
      match Fault.Plan.parse text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad plan %S" text)
    [
      "dcrash=0:no.such.point@1+100";
      "dcrash=0:sync.pre@0+100";
      "dcrash=-1:sync.pre@1+100";
      "dcrash=0:sync.pre@1+100,dcrash=0:sync.post@1+100";
    ]

(* one WAL scratch root: a kept directory is created and survives its
   dispose; a temp root is PREFIX-PID, starts empty over a stale one, and
   its dispose removes it *)
let test_scratch_dir () =
  let kept = fresh_dir () in
  let dir, dispose = Fsio.scratch_dir ~keep:kept "repro-scratch-test" in
  check Alcotest.string "the named directory" kept dir;
  Out_channel.with_open_bin (Filename.concat kept "node-0.wal") ignore;
  dispose ();
  check Alcotest.(array string) "a kept directory survives its dispose"
    [| "node-0.wal" |] (Sys.readdir kept);
  Fsio.remove_tree kept;
  let stale, _ = Fsio.scratch_dir "repro-scratch-test" in
  Out_channel.with_open_bin (Filename.concat stale "leftover") ignore;
  let dir, dispose = Fsio.scratch_dir "repro-scratch-test" in
  check Alcotest.string "PREFIX-PID under the temp dir"
    (Filename.concat
       (Filename.get_temp_dir_name ())
       (Printf.sprintf "repro-scratch-test-%d" (Unix.getpid ())))
    dir;
  check Alcotest.(array string) "a stale root starts empty" [||]
    (Sys.readdir dir);
  dispose ();
  check Alcotest.bool "the dispose removes the temp root" false
    (Sys.file_exists dir)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "repro_durable"
    [
      ( "crc32",
        [
          tc "IEEE check value" `Quick test_crc_vector;
          tc "chaining" `Quick test_crc_chaining;
        ] );
      ( "blob",
        [
          tc "round-trip + foreign rejection" `Quick test_blob_roundtrip;
          tc "every corrupt byte rejected" `Quick test_blob_corruption;
        ] );
      ( "wal",
        [
          tc "round-trip" `Quick test_wal_roundtrip;
          tc "reopen continues the sequence" `Quick test_wal_reopen_continues;
          tc "fresh wipes" `Quick test_wal_fresh_wipes;
          tc "torn tail at every byte boundary" `Quick
            test_wal_torn_tail_every_boundary;
          tc "corrupt record drops a clean suffix" `Quick
            test_wal_corrupt_record_rejected;
        ] );
      ( "rotation",
        [
          tc "checkpoint compacts" `Quick test_wal_checkpoint_compacts;
          tc "crash at every rotation step" `Quick
            test_wal_rotation_crash_points;
          tc "crash inside append" `Quick test_wal_append_crash_points;
          tc "crash around sync (incl. power cut)" `Quick
            test_wal_sync_crash_points;
        ] );
      ("kill9", [ tc "digest survives SIGKILL" `Quick test_wal_kill9_digest ]);
      ("scratch", [ tc "scratch_dir keeps or disposes" `Quick test_scratch_dir ]);
      ( "plan",
        [
          tc "dcrash parse" `Quick test_dcrash_parse;
          tc "dcrash round-trip" `Quick test_dcrash_roundtrip;
          tc "dcrash validation" `Quick test_dcrash_validation;
        ] );
    ]
