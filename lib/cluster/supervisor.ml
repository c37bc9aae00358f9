module Chaos = Repro_transport.Chaos
module Fault = Repro_msgpass.Fault

exception Crash of string

(* A child marshals [Finished] or [Crashed] over its report pipe; the
   parent assigns the other two. *)
type 'r ending = Finished of 'r | Crashed of string | Injected_crash | Put_down

type 'r slot = {
  body : incarnation:int -> 'r;
  mutable pid : int;
  mutable rfd : Unix.file_descr;
  buf : Buffer.t;
  mutable eof : bool;  (* the report pipe is closed *)
  mutable status : Unix.process_status option;  (* None until reaped *)
  mutable incarnation : int;
  mutable respawn_at : float option;
  mutable ending : 'r ending option;
}

type 'r t = {
  deadline : float;
  chaos : Fault.Plan.t option;
  on_respawn : int -> unit;
  mutable slots : 'r slot array;
  chunk : Bytes.t;
}

let create ~deadline_ms ?chaos ?(on_respawn = fun _ -> ()) () =
  {
    deadline = Unix.gettimeofday () +. (float deadline_ms /. 1000.);
    chaos;
    on_respawn;
    slots = [||];
    chunk = Bytes.create 65536;
  }

let child_main body ~incarnation wfd =
  let report =
    try Finished (body ~incarnation) with
    | Chaos.Injected_crash _ ->
        (* die like a real crash: no report, no cleanup — the parent
           recognizes the status and respawns the slot *)
        Unix._exit 42
    | Crash msg -> Crashed msg
    | e -> Crashed (Printexc.to_string e)
  in
  (try
     let oc = Unix.out_channel_of_descr wfd in
     Marshal.to_channel oc report [];
     flush oc
   with _ -> ());
  (* _exit: skip the at_exit hooks and channel flushes inherited from the
     parent *)
  Unix._exit (match report with Finished _ -> 0 | _ -> 1)

let fork body ~incarnation =
  (* children inherit OCaml's output buffers: flush now or pending output
     gets printed twice *)
  flush stdout;
  flush stderr;
  let rfd, wfd = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rfd;
      child_main body ~incarnation wfd
  | pid ->
      Unix.close wfd;
      (pid, rfd)

let spawn t body =
  let pid, rfd = fork body ~incarnation:0 in
  let s =
    {
      body;
      pid;
      rfd;
      buf = Buffer.create 4096;
      eof = false;
      status = None;
      incarnation = 0;
      respawn_at = None;
      ending = None;
    }
  in
  t.slots <- Array.append t.slots [| s |]

let restart_delay t i =
  match t.chaos with
  | None -> None
  | Some p -> (
      match Fault.Plan.crash_for p i with
      | Some c -> c.Fault.Plan.restart_after
      | None -> (
          match Fault.Plan.dcrash_for p i with
          | Some c -> c.Fault.Plan.drestart_after
          | None -> None))

let close_pipe s =
  s.eof <- true;
  try Unix.close s.rfd with Unix.Unix_error _ -> ()

let respawn t i s =
  t.on_respawn i;
  let pid, rfd = fork s.body ~incarnation:(s.incarnation + 1) in
  s.incarnation <- s.incarnation + 1;
  s.pid <- pid;
  s.rfd <- rfd;
  Buffer.clear s.buf;
  s.eof <- false;
  s.status <- None;
  s.respawn_at <- None

let exit_text = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "signal %d" sg
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped %d" sg

(* A slot settles once its child has exited and its pipe has closed. *)
let settle t i s =
  if Option.is_none s.ending && Option.is_none s.respawn_at && s.eof then
    match s.status with
    | None -> ()
    | Some (Unix.WEXITED 42) -> (
        match restart_delay t i with
        | Some d when s.incarnation = 0 ->
            s.respawn_at <- Some (Unix.gettimeofday () +. (float d /. 1000.))
        | _ -> s.ending <- Some Injected_crash)
    | Some st ->
        s.ending <-
          Some
            (try (Marshal.from_string (Buffer.contents s.buf) 0 : _ ending)
             with _ ->
               Crashed
                 (Printf.sprintf "exited without reporting (%s)"
                    (exit_text st)));
        Buffer.reset s.buf

let step t ?(fds = []) ~timeout () =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun i s ->
      match s.respawn_at with
      | Some at when now >= at -> respawn t i s
      | _ -> ())
    t.slots;
  let next_respawn =
    Array.fold_left
      (fun acc s ->
        match s.respawn_at with Some at -> Float.min acc at | None -> acc)
      infinity t.slots
  in
  let timeout =
    if Array.exists (fun s -> s.eof && Option.is_none s.status) t.slots then
      (* a child closed its pipe but was not reaped yet: it is exiting *)
      Float.min timeout 0.01
    else if next_respawn = infinity then timeout
    else Float.max 0.01 (Float.min timeout (next_respawn -. now))
  in
  let open_slots = List.filter (fun s -> not s.eof) (Array.to_list t.slots) in
  let ready =
    match fds @ List.map (fun s -> s.rfd) open_slots with
    | [] ->
        Unix.sleepf timeout;
        []
    | watched -> (
        match Unix.select watched [] [] timeout with
        | ready, _, _ -> ready
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> [])
  in
  List.iter
    (fun s ->
      if List.memq s.rfd ready then
        match Unix.read s.rfd t.chunk 0 (Bytes.length t.chunk) with
        | 0 -> close_pipe s
        | k -> Buffer.add_subbytes s.buf t.chunk 0 k
        | exception Unix.Unix_error _ -> close_pipe s)
    open_slots;
  Array.iter
    (fun s ->
      if Option.is_none s.status then
        match Unix.waitpid [ Unix.WNOHANG ] s.pid with
        | 0, _ -> ()
        | _, st -> s.status <- Some st
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            s.status <- Some (Unix.WEXITED 255))
    t.slots;
  Array.iteri (settle t) t.slots;
  List.filter (fun fd -> List.memq fd ready) fds

let running t =
  Array.exists (fun s -> Option.is_none s.ending) t.slots
  && Unix.gettimeofday () < t.deadline

let ending t i = t.slots.(i).ending

let awaiting_respawn t i = Option.is_some t.slots.(i).respawn_at

(* every respawn bumps its slot's incarnation by one *)
let restarts t = Array.fold_left (fun n s -> n + s.incarnation) 0 t.slots

let stop t =
  Array.iter
    (fun s ->
      if Option.is_none s.ending then begin
        (* only a child not yet reaped is still ours to signal: a slot
           awaiting its respawn has none *)
        if Option.is_none s.status then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          s.status <-
            Some
              (try snd (Unix.waitpid [] s.pid)
               with Unix.Unix_error _ -> Unix.WEXITED 255)
        end;
        if not s.eof then close_pipe s;
        s.respawn_at <- None;
        s.ending <- Some Put_down
      end)
    t.slots;
  Array.map (fun s -> Option.get s.ending) t.slots

let wait t =
  while running t do
    ignore (step t ~timeout:0.2 ())
  done;
  stop t
