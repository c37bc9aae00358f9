module Net = Repro_msgpass.Net

type scope = All_nodes | Node of int

type 'msg t = {
  n_nodes : int;
  scope : scope;
  send :
    src:int -> dst:int -> control_bytes:int -> payload_bytes:int -> 'msg -> unit;
  set_handler : int -> ('msg Net.envelope -> unit) -> unit;
  schedule : delay:int -> (unit -> unit) -> unit;
  step : unit -> bool;
  quiesce : unit -> unit;
  now : unit -> int;
  stats : unit -> Net.stats;
  set_tracing : bool -> unit;
  trace : unit -> 'msg Net.event list;
}

type factory = { create : 'msg. ?codec:'msg Codec.t -> int -> 'msg t }

let of_net net =
  {
    n_nodes = Net.n_nodes net;
    scope = All_nodes;
    send =
      (fun ~src ~dst ~control_bytes ~payload_bytes msg ->
        Net.send net ~src ~dst ~control_bytes ~payload_bytes msg);
    set_handler = (fun node f -> Net.set_handler net node f);
    schedule = (fun ~delay f -> Net.at net ~delay f);
    step = (fun () -> Net.step net);
    quiesce = (fun () -> Net.run net);
    now = (fun () -> Net.now net);
    stats = (fun () -> Net.stats net);
    set_tracing = (fun flag -> Net.set_tracing net flag);
    trace = (fun () -> Net.trace net);
  }

let sim ?fifo ?service_time ~latency ~seed () =
  {
    create =
      (fun ?codec:_ n ->
        (* messages never leave the address space: codecs are a live-wire
           concern, and ignoring them here keeps the simulator — and every
           golden digest — byte-identical *)
        of_net (Net.create ?fifo ?service_time ~n ~latency ~seed ()));
  }
