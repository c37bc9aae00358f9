module Net = Repro_msgpass.Net
module Transport = Repro_transport.Transport
module Codec = Repro_transport.Codec
module Distribution = Repro_sharegraph.Distribution
module Bitset = Repro_util.Bitset

type 'msg port = {
  send :
    dst:int ->
    control_bytes:int ->
    payload_bytes:int ->
    mentions:int list ->
    'msg ->
    unit;
  applied : unit -> unit;
}

type ('state, 'msg) t = {
  name : string;
  codec : 'msg Codec.t option;
  label : 'msg -> string;
  extra_nodes : int;
  blocking_reads : bool;
  blocking_writes : bool;
  checkpoint : (('state -> string) * ('state -> string -> unit)) option;
  init : Distribution.t -> self:int -> 'msg port -> 'state;
  read : 'state -> var:int -> Memory.value;
  write : 'state -> var:int -> Memory.value -> unit;
  deliver : 'state -> src:int -> 'msg -> unit;
}

(* toplevel recursion, not [List.iter] with a closure: one send must not
   allocate a closure per call *)
let rec mention mentioned dst = function
  | [] -> ()
  | x :: rest ->
      Bitset.add mentioned.(x) dst;
      mention mentioned dst rest

let memory ?transport ~dist ~latency ~seed m =
  let n_nodes = Distribution.n_procs dist + m.extra_nodes in
  let factory =
    match transport with
    | Some f -> f
    | None -> Transport.sim ~latency ~seed ()
  in
  let tr = factory.Transport.create ?codec:m.codec n_nodes in
  (* per variable: the nodes informed about it *)
  let mentioned =
    Array.init (Distribution.n_vars dist) (fun _ -> Bitset.create n_nodes)
  in
  let applied = ref 0 in
  let port src =
    {
      send =
        (fun ~dst ~control_bytes ~payload_bytes ~mentions msg ->
          mention mentioned dst mentions;
          tr.Transport.send ~src ~dst ~control_bytes ~payload_bytes msg);
      applied = (fun () -> incr applied);
    }
  in
  (* the hosted nodes are [lo, hi): every node on the simulator, one on a
     live backend *)
  let lo, hi =
    match tr.Transport.scope with
    | Transport.All_nodes -> (0, n_nodes)
    | Transport.Node self -> (self, self + 1)
  in
  let states =
    Array.init (hi - lo) (fun i ->
        let self = lo + i in
        let s = m.init dist ~self (port self) in
        tr.Transport.set_handler self (fun env ->
            m.deliver s ~src:env.Net.src env.Net.msg);
        s)
  in
  let state_of proc var =
    if not (Distribution.holds dist ~proc ~var) then
      invalid_arg
        (Printf.sprintf "%s: process %d does not hold variable x%d" m.name proc var);
    if proc < lo || proc >= hi then
      invalid_arg
        (Printf.sprintf "%s: process %d is not hosted by this transport" m.name proc);
    states.(proc - lo)
  in
  let metrics () =
    let s = tr.Transport.stats () in
    {
      Memory.messages_sent = s.Net.sent;
      messages_delivered = s.Net.delivered;
      control_bytes = s.Net.total_control_bytes;
      payload_bytes = s.Net.total_payload_bytes;
      overhead_bytes = s.Net.overhead_bytes;
      mentioned_at = Array.map Bitset.copy mentioned;
      applied_writes = !applied;
    }
  in
  {
    Memory.name = m.name;
    dist;
    read = (fun ~proc ~var -> m.read (state_of proc var) ~var);
    write = (fun ~proc ~var value -> m.write (state_of proc var) ~var value);
    step = (fun () -> tr.Transport.step ());
    quiesce = (fun () -> tr.Transport.quiesce ());
    now = (fun () -> tr.Transport.now ());
    schedule = (fun ~delay f -> tr.Transport.schedule ~delay f);
    metrics;
    blocking_writes = m.blocking_writes;
    blocking_reads = m.blocking_reads;
    set_tracing = (fun flag -> tr.Transport.set_tracing flag);
    msc =
      (fun () ->
        Repro_msgpass.Msc.render ~n_nodes ~label:m.label (tr.Transport.trace ()));
    (* a checkpoint carries the applied count and the audit along with
       the hosted states, or a restored node would under-report *)
    snapshot =
      Option.map
        (fun (snap, _) () ->
          Marshal.to_string (!applied, mentioned, Array.map snap states) [])
        m.checkpoint;
    restore =
      Option.map
        (fun (_, rest) blob ->
          let applied', mentioned', inner =
            (Marshal.from_string blob 0 : int * Bitset.t array * string array)
          in
          applied := applied';
          Array.blit mentioned' 0 mentioned 0 (Array.length mentioned);
          Array.iter2 rest states inner)
        m.checkpoint;
  }

let value_text = function
  | Repro_history.Op.Init -> "_"
  | Repro_history.Op.Val v -> string_of_int v
