module Net = Repro_msgpass.Net
module Plan = Repro_msgpass.Fault.Plan
module Rng = Repro_util.Rng

exception Injected_crash of int

type stats = { drops : int; duplicates : int; delays : int; crashes : int }

type control = { stats : unit -> stats }

let wrap ?(incarnation = 0) ~plan (inner : Transport.factory) :
    Transport.factory * control =
  Plan.validate plan;
  let drops = ref 0 and dups = ref 0 and delays = ref 0 and crashes = ref 0 in
  let control =
    {
      stats =
        (fun () ->
          { drops = !drops; duplicates = !dups; delays = !delays;
            crashes = !crashes });
    }
  in
  let factory =
    {
      Transport.create =
        (fun (type m) ?codec n : m Transport.t ->
          Plan.validate ~n plan;
          let tr : m Transport.t = inner.Transport.create ?codec n in
          (* One private decision stream per directed link: five draws per
             send, unconditionally, so a link's decisions depend only on
             its own send index — identical on sim and live backends. *)
          let link_rng =
            Array.init n (fun s ->
                Array.init n (fun d ->
                    Rng.create (Plan.link_seed plan ~src:s ~dst:d)))
          in
          let sends_by = Array.make n 0 in
          (* A restarted process must not re-trigger its crash: the plan's
             schedule fired in incarnation 0. *)
          let crash_arm =
            Array.init n (fun i ->
                if incarnation = 0 then Plan.crash_for plan i else None)
          in
          (* Simulator crash approximation: the node goes silent (sends and
             deliveries dropped) for the restart window, state intact.  On
             a live backend crashes raise instead — see below. *)
          let down_until = Array.make n min_int in
          let is_down node now = now < down_until.(node) in
          {
            Transport.n_nodes = n;
            scope = tr.Transport.scope;
            send =
              (fun ~src ~dst ~control_bytes ~payload_bytes msg ->
                let now = tr.Transport.now () in
                let link = Plan.link_for plan ~src ~dst in
                let r = link_rng.(src).(dst) in
                let u_drop = Rng.float r 1.0 in
                let u_dup = Rng.float r 1.0 in
                let u_reorder = Rng.float r 1.0 in
                let d1 = 1 + Rng.int r plan.Plan.delay_max in
                let d2 = 1 + Rng.int r plan.Plan.delay_max in
                if is_down src now then incr drops
                else if Plan.partitioned plan ~now ~src ~dst then incr drops
                else if u_drop < link.Plan.drop then incr drops
                else begin
                  let transmit delay =
                    if delay = 0 then
                      tr.Transport.send ~src ~dst ~control_bytes ~payload_bytes
                        msg
                    else
                      tr.Transport.schedule ~delay (fun () ->
                          tr.Transport.send ~src ~dst ~control_bytes
                            ~payload_bytes msg)
                  in
                  let base =
                    if u_reorder < link.Plan.reorder then begin
                      incr delays;
                      d1
                    end
                    else 0
                  in
                  transmit base;
                  if u_dup < link.Plan.duplicate then begin
                    incr dups;
                    transmit (base + d2)
                  end
                end;
                sends_by.(src) <- sends_by.(src) + 1;
                match crash_arm.(src) with
                | Some c when sends_by.(src) >= c.Plan.after_sends -> begin
                    crash_arm.(src) <- None;
                    incr crashes;
                    match tr.Transport.scope with
                    | Transport.Node self when self = src ->
                        (* live: this process IS the node — die for real;
                           the respawn recovers from its WAL *)
                        raise (Injected_crash src)
                    | _ ->
                        down_until.(src) <-
                          (match c.Plan.restart_after with
                          | Some d -> now + d
                          | None -> max_int)
                  end
                | _ -> ());
            set_handler =
              (fun node f ->
                tr.Transport.set_handler node (fun env ->
                    if is_down node (tr.Transport.now ()) then incr drops
                    else f env));
            schedule = tr.Transport.schedule;
            step = tr.Transport.step;
            quiesce = tr.Transport.quiesce;
            now = tr.Transport.now;
            stats =
              (fun () ->
                let s = tr.Transport.stats () in
                {
                  s with
                  Net.dropped = s.Net.dropped + !drops;
                  duplicated = s.Net.duplicated + !dups;
                });
            set_tracing = tr.Transport.set_tracing;
            trace = tr.Transport.trace;
          });
    }
  in
  (factory, control)
