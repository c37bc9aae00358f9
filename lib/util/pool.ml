(* Work distribution: each parallel call publishes a batch; idle workers
   steal from the newest active batch (LIFO over batches, FIFO within one).
   The submitter participates in its own batch and blocks only once every
   task has been claimed, so nested parallel calls cannot deadlock: any
   blocked worker has first drained the unclaimed tasks of the batch it is
   waiting on, and waits only ever point at strictly newer batches.

   All scheduling state (queues, counters) lives under one mutex — tasks
   here are coarse (a consistency check, an experiment table), so claim
   contention is negligible.  Cancellation flags are atomics because task
   bodies read them outside the lock. *)

type batch = {
  tasks : (unit -> unit) array;
      (* wrapped task bodies: never raise, record their own results *)
  mutable next : int; (* first unclaimed task *)
  mutable unfinished : int; (* claimed-or-unclaimed tasks not yet settled *)
  cancelled : bool Atomic.t;
}

type t = {
  jobs : int;
  lock : Mutex.t;
  work : Condition.t; (* a batch was published *)
  finished : Condition.t; (* some batch settled all its tasks *)
  mutable active : batch list; (* newest first *)
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.jobs

let n_tasks b = Array.length b.tasks

(* Both helpers below run with [t.lock] held. *)

let settle_batch t b settled =
  b.unfinished <- b.unfinished - settled;
  if b.unfinished = 0 then begin
    t.active <- List.filter (fun b' -> b' != b) t.active;
    Condition.broadcast t.finished
  end

let rec claim t = function
  | [] -> None
  | b :: rest ->
      if Atomic.get b.cancelled && b.next < n_tasks b then begin
        let skipped = n_tasks b - b.next in
        b.next <- n_tasks b;
        settle_batch t b skipped
      end;
      if b.next < n_tasks b then begin
        let i = b.next in
        b.next <- i + 1;
        Some (b, i)
      end
      else claim t rest

let exec t b i =
  b.tasks.(i) ();
  Mutex.lock t.lock;
  settle_batch t b 1;
  Mutex.unlock t.lock

let rec worker t =
  Mutex.lock t.lock;
  let rec get () =
    match claim t t.active with
    | Some _ as found -> found
    | None ->
        if t.stopped then None
        else begin
          Condition.wait t.work t.lock;
          get ()
        end
  in
  let found = get () in
  Mutex.unlock t.lock;
  match found with
  | None -> ()
  | Some (b, i) ->
      exec t b i;
      worker t

let submit_and_help t b =
  Mutex.lock t.lock;
  if t.stopped then begin
    Mutex.unlock t.lock;
    invalid_arg "Pool: pool is shut down"
  end;
  t.active <- b :: t.active;
  Condition.broadcast t.work;
  let rec help () =
    match claim t [ b ] with
    | Some (b, i) ->
        Mutex.unlock t.lock;
        exec t b i;
        Mutex.lock t.lock;
        help ()
    | None ->
        if b.unfinished > 0 then begin
          Condition.wait t.finished t.lock;
          help ()
        end
  in
  help ();
  Mutex.unlock t.lock

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j ->
        if j < 1 then invalid_arg "Pool.create: jobs < 1";
        j
    | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      active = [];
      stopped = false;
      domains = [];
    }
  in
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.lock;
  if not t.stopped then begin
    t.stopped <- true;
    Condition.broadcast t.work
  end;
  let domains = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join domains

(* Record the submission-order-first failure of a batch. *)
let record_failure failure cancelled i exn bt =
  let rec loop () =
    let current = Atomic.get failure in
    let earlier = match current with None -> true | Some (j, _, _) -> i < j in
    if earlier && not (Atomic.compare_and_set failure current (Some (i, exn, bt)))
    then loop ()
  in
  loop ();
  Atomic.set cancelled true

let reraise_failure failure =
  match Atomic.get failure with
  | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let run t thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | thunks when t.jobs = 1 -> List.map (fun f -> f ()) thunks
  | thunks ->
      let thunks = Array.of_list thunks in
      let n = Array.length thunks in
      let results = Array.make n None in
      let failure = Atomic.make None in
      let cancelled = Atomic.make false in
      (* A claimed task always runs.  Claims follow submission order, so
         every task before a failing one was claimed and still completes:
         the first failure in submission order wins, even when a later
         task fails first.  Cancellation only abandons unclaimed tasks. *)
      let tasks =
        Array.mapi
          (fun i f () ->
            match f () with
            | v -> results.(i) <- Some v
            | exception exn ->
                record_failure failure cancelled i exn
                  (Printexc.get_raw_backtrace ()))
          thunks
      in
      submit_and_help t { tasks; next = 0; unfinished = n; cancelled };
      reraise_failure failure;
      Array.to_list
        (Array.map
           (function Some v -> v | None -> assert false (* no failure *))
           results)

let map t f xs = run t (List.map (fun x () -> f x) xs)

let for_all t pred xs =
  match xs with
  | [] -> true
  | [ x ] -> pred x
  | xs when t.jobs = 1 -> List.for_all pred xs
  | xs ->
      let xs = Array.of_list xs in
      let ok = Atomic.make true in
      let failure = Atomic.make None in
      let cancelled = Atomic.make false in
      let tasks =
        Array.mapi
          (fun i x () ->
            if not (Atomic.get cancelled) then
              match pred x with
              | true -> ()
              | false ->
                  Atomic.set ok false;
                  Atomic.set cancelled true
              | exception exn ->
                  record_failure failure cancelled i exn
                    (Printexc.get_raw_backtrace ()))
          xs
      in
      submit_and_help t
        { tasks; next = 0; unfinished = Array.length xs; cancelled };
      reraise_failure failure;
      Atomic.get ok

(* --- default pool ---------------------------------------------------------- *)

let env_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)
  | None -> None

let configured_jobs = ref None
let default_pool = ref None

let default_jobs () =
  match !configured_jobs with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> Stdlib.max 1 (Domain.recommended_domain_count ()))

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create ~jobs:(default_jobs ()) () in
      default_pool := Some p;
      (* worker domains must be joined before the runtime tears down *)
      at_exit (fun () -> shutdown p);
      p

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs < 1";
  configured_jobs := Some n;
  match !default_pool with
  | Some p when p.jobs = n -> ()
  | previous ->
      default_pool := None;
      (match previous with Some p -> shutdown p | None -> ())
