module Latency = Repro_msgpass.Latency
module Transport = Repro_transport.Transport
module Session = Repro_transport.Session

let create ?plan ?(latency = Latency.lan) ?transport ~dist ~seed () =
  let backend =
    match transport with
    | Some f -> f
    | None -> Transport.sim ~latency ~seed ()
  in
  let memory =
    Pram_partial.create ~transport:(Session.stack ?plan ~seed backend) ~dist
      ~seed ()
  in
  (* the session windows live outside the protocol snapshot, so a restored
     node could not resume them: no checkpoint support *)
  { memory with Memory.name = "pram-reliable"; snapshot = None; restore = None }
