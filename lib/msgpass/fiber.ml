open Effect
open Effect.Deep

type _ Effect.t +=
  | Yield : unit Effect.t
  | Await : (unit -> bool) -> unit Effect.t
  | Sleep : int -> unit Effect.t

let yield () = perform Yield

let await p = perform (Await p)

let sleep ticks = perform (Sleep ticks)

let spawn ~schedule ?(poll_interval = 1) ?(on_done = fun () -> ()) f =
  if poll_interval < 1 then invalid_arg "Fiber.spawn: poll_interval must be >= 1";
  let run () =
    match_with f ()
      {
        retc = (fun () -> on_done ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, _) continuation) ->
                    schedule ~delay:poll_interval (fun () -> continue k ()))
            | Await p ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let rec check () =
                      if p () then continue k ()
                      else schedule ~delay:poll_interval check
                    in
                    check ())
            | Sleep ticks ->
                Some
                  (fun (k : (a, _) continuation) ->
                    schedule ~delay:(Int.max 0 ticks) (fun () -> continue k ()))
            | _ -> None);
      }
  in
  (* Start through the scheduler so spawn order, not call order, determines
     interleaving. *)
  schedule ~delay:0 run
