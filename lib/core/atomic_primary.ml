module Latency = Repro_msgpass.Latency
module Fiber = Repro_msgpass.Fiber
module Distribution = Repro_sharegraph.Distribution

type msg =
  | Read_req of { var : int; req_id : int; requester : int }
  | Write_req of { var : int; value : Memory.value; req_id : int; requester : int }
  | Reply of { req_id : int; value : Memory.value }

(* Authoritative copies live at primaries only. *)
type state = {
  self : int;
  dist : Distribution.t;
  port : msg Machine.port;
  store : Memory.value array;
  mutable next_req : int;
  replies : (int, Memory.value) Hashtbl.t;  (* by req_id *)
}

let label = function
  | Read_req { var; requester; _ } -> Printf.sprintf "read x%d? p%d" var requester
  | Write_req { var; value; requester; _ } ->
      Printf.sprintf "write x%d:=%s p%d" var (Machine.value_text value) requester
  | Reply { value; _ } -> Printf.sprintf "reply %s" (Machine.value_text value)

let init dist ~self port =
  let store = Array.make (Distribution.n_vars dist) Repro_history.Op.Init in
  { self; dist; port; store; next_req = 0; replies = Hashtbl.create 64 }

(* the lowest-numbered holder; every variable reaching here has one *)
let primary s var = List.hd (Distribution.holders s.dist var)

let deliver s ~src:_ = function
  | Read_req { var; req_id; requester } ->
      s.port.Machine.send ~dst:requester ~control_bytes:8
        ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
        (Reply { req_id; value = s.store.(var) })
  | Write_req { var; value; req_id; requester } ->
      s.store.(var) <- value;
      s.port.Machine.applied ();
      s.port.Machine.send ~dst:requester ~control_bytes:8 ~payload_bytes:0
        ~mentions:[ var ] (Reply { req_id; value })
  | Reply { req_id; value } -> Hashtbl.replace s.replies req_id value

let rpc s msg_of_req_id =
  let req_id = s.next_req in
  s.next_req <- req_id + 1;
  msg_of_req_id req_id;
  Fiber.await (fun () -> Hashtbl.mem s.replies req_id);
  let value = Hashtbl.find s.replies req_id in
  Hashtbl.remove s.replies req_id;
  value

let read s ~var =
  let primary = primary s var in
  if primary = s.self then s.store.(var)
  else
    rpc s (fun req_id ->
        s.port.Machine.send ~dst:primary ~control_bytes:16 ~payload_bytes:0
          ~mentions:[ var ]
          (Read_req { var; req_id; requester = s.self }))

let write s ~var value =
  let primary = primary s var in
  if primary = s.self then begin
    s.store.(var) <- value;
    s.port.Machine.applied ()
  end
  else
    ignore
      (rpc s (fun req_id ->
           s.port.Machine.send ~dst:primary ~control_bytes:16
             ~payload_bytes:Memory.value_bytes ~mentions:[ var ]
             (Write_req { var; value; req_id; requester = s.self })))

let create ?(latency = Latency.lan) ?transport ~dist ~seed () =
  Machine.memory ?transport ~dist ~latency ~seed
    { Machine.name = "atomic-primary"; codec = None; label; extra_nodes = 0;
      blocking_reads = true; blocking_writes = true; checkpoint = None; init;
      read; write; deliver }
