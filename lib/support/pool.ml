(* Worker domains block on [work_ready] until the generation counter moves,
   execute the current job's chunk-stealing loop, check in under the mutex,
   and go back to waiting.  The submitting domain participates in the loop
   itself, then waits for every worker to check in — so a job's results are
   published to the submitter by the final mutex handover, and no worker
   can still be touching a job when the next one is posted. *)

type job = {
  execute : unit -> unit;  (* chunk-stealing loop; must not raise *)
  mutable pending : int;  (* workers that have not checked in yet *)
}

type t = {
  n_jobs : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable current : job option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let default_jobs () = max 1 (min 16 (Domain.recommended_domain_count ()))
let jobs t = t.n_jobs

(* Observability: every claimed chunk becomes one span on the lane of the
   domain that executed it — that is what makes the parallel front-end's
   per-domain utilization visible in a Chrome trace — and the item/chunk
   counters let jobs=1 and jobs=N runs be compared (item totals are
   partition-invariant; chunk totals are not). *)
let span_chunk = "pool.chunk"
let c_items = Spike_obs.Metrics.counter "pool.items"
let c_chunks = Spike_obs.Metrics.counter "pool.chunks"

let rec worker_loop t last_generation =
  Mutex.lock t.mutex;
  while (not t.stop) && t.generation = last_generation do
    Condition.wait t.work_ready t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let generation = t.generation in
    let job = match t.current with Some j -> j | None -> assert false in
    Mutex.unlock t.mutex;
    job.execute ();
    Mutex.lock t.mutex;
    job.pending <- job.pending - 1;
    if job.pending = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.mutex;
    worker_loop t generation
  end

let create ~jobs =
  let n_jobs = max 1 (min jobs 64) in
  let t =
    {
      n_jobs;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      current = None;
      stop = false;
      workers = [];
    }
  in
  t.workers <- List.init (n_jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* Post [execute] as the current job, run it on the calling domain too, and
   wait until every worker has checked in.  The final mutex handover
   publishes all of the job's writes to the submitter. *)
let submit t execute =
  let job = { execute; pending = t.n_jobs - 1 } in
  Mutex.lock t.mutex;
  t.current <- Some job;
  t.generation <- t.generation + 1;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  execute ();
  Mutex.lock t.mutex;
  while job.pending > 0 do
    Condition.wait t.work_done t.mutex
  done;
  t.current <- None;
  Mutex.unlock t.mutex

(* Run [body i] for every [i] in [0 .. n - 1], distributed over the pool. *)
let run t n body =
  if n = 0 then ()
  else if t.n_jobs = 1 || n = 1 then begin
    Spike_obs.Metrics.add c_items n;
    Spike_obs.Metrics.incr c_chunks;
    Spike_obs.Trace.with_span span_chunk (fun () ->
        for i = 0 to n - 1 do
          body i
        done)
  end
  else begin
    let next = Atomic.make 0 in
    let error = Atomic.make None in
    (* Small chunks relative to n/jobs so an unlucky run of expensive items
       (one huge routine) rebalances onto idle workers. *)
    let chunk = max 1 (n / (t.n_jobs * 8)) in
    let execute () =
      let continue = ref true in
      while !continue do
        if Atomic.get error <> None then continue := false
        else begin
          let start = Atomic.fetch_and_add next chunk in
          if start >= n then continue := false
          else
            let stop = min n (start + chunk) in
            Spike_obs.Metrics.add c_items (stop - start);
            Spike_obs.Metrics.incr c_chunks;
            try
              Spike_obs.Trace.with_span span_chunk (fun () ->
                  for i = start to stop - 1 do
                    body i
                  done)
            with e ->
              let bt = Printexc.get_raw_backtrace () in
              ignore (Atomic.compare_and_set error None (Some (e, bt)))
        end
      done
    in
    submit t execute;
    match Atomic.get error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_init t n f =
  if n = 0 then [||]
  else if t.n_jobs = 1 || n = 1 then begin
    (* Mirrors [run]'s sequential path so item totals and chunk spans are
       recorded whatever the degree, without boxing the results. *)
    Spike_obs.Metrics.add c_items n;
    Spike_obs.Metrics.incr c_chunks;
    Spike_obs.Trace.with_span span_chunk (fun () -> Array.init n f)
  end
  else begin
    let results = Array.make n None in
    run t n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some v -> v | None -> assert false) results
  end

let parallel_map_array t f items =
  parallel_init t (Array.length items) (fun i -> f items.(i))
