let default_workers () = max 1 (Domain.recommended_domain_count ())

let check_workers = function
  | None -> default_workers ()
  | Some w when w >= 1 -> w
  | Some _ -> invalid_arg "Pool: workers must be >= 1"

(* ------------------------------------------------------------------ *)
(* Batch map: an atomic next-index counter is all the scheduling an
   in-memory array needs; each result cell is written by exactly one
   domain and read only after every domain is joined, so the plain
   array is race-free under the OCaml memory model. *)

let map ?workers f arr =
  let n = Array.length arr in
  let w = min (check_workers workers) (max 1 n) in
  if n = 0 then [||]
  else if w = 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let body () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else
          results.(i) <-
            Some (match f arr.(i) with v -> Ok v | exception e -> Error e)
      done
    in
    let domains = List.init (w - 1) (fun _ -> Domain.spawn body) in
    body ();
    List.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false)
      results
  end

(* ------------------------------------------------------------------ *)
(* Streaming pool.  One mutex guards the queue, the completion table
   and the closed flag; [work_available] wakes workers, [progress]
   wakes the driver.  The driver (calling domain) alternates between
   producing (outside the lock - the producer may block on input),
   draining the completed prefix in submission order, and waiting. *)

type ('a, 'b) shared = {
  lock : Mutex.t;
  work_available : Condition.t;
  progress : Condition.t;
  queue : (int * 'a) Queue.t;
  completed : (int, ('b, exn) result) Hashtbl.t;
  mutable closed : bool;
}

(* What the producer has for the pool right now.  [Block] means "no item
   at this instant, but the stream is not over": the driver drains any
   completed results and polls again, so a producer that waits on
   external input (a socket select loop) can keep responses flowing
   while idle.  A [Block]-returning producer must do its own blocking,
   or the driver busy-spins; to hand a finished result out at once it
   should also wake on [on_complete] (see [stream_poll]). *)
type 'a poll = Item of 'a | Block | Eof

let stream_poll ?workers ?(queue_capacity = 64) ?(on_complete = ignore)
    ~produce ~consume f =
  let w = check_workers workers in
  if queue_capacity < 1 then invalid_arg "Pool.stream: queue_capacity < 1";
  let st =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      progress = Condition.create ();
      queue = Queue.create ();
      completed = Hashtbl.create (2 * queue_capacity);
      closed = false;
    }
  in
  let worker () =
    let continue = ref true in
    while !continue do
      Mutex.lock st.lock;
      while Queue.is_empty st.queue && not st.closed do
        Condition.wait st.work_available st.lock
      done;
      if Queue.is_empty st.queue then begin
        (* closed and drained *)
        Mutex.unlock st.lock;
        continue := false
      end
      else begin
        let seq, item = Queue.pop st.queue in
        Mutex.unlock st.lock;
        let r = match f item with v -> Ok v | exception e -> Error e in
        Mutex.lock st.lock;
        Hashtbl.replace st.completed seq r;
        Condition.signal st.progress;
        Mutex.unlock st.lock;
        (* only after the result is visible: a driver woken earlier
           could find nothing to drain and block again *)
        on_complete ()
      end
    done
  in
  let domains = List.init w (fun _ -> Domain.spawn worker) in
  let submitted = ref 0 and emitted = ref 0 and eof = ref false in
  let first_error = ref None in
  (* With the lock held: pop the contiguous completed prefix. *)
  let drain_ready () =
    let ready = ref [] in
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt st.completed !emitted with
      | Some r ->
        Hashtbl.remove st.completed !emitted;
        ready := (!emitted, r) :: !ready;
        incr emitted
      | None -> continue := false
    done;
    List.rev !ready
  in
  let emit ready =
    List.iter
      (fun (seq, r) ->
        match r with
        | Ok v -> consume seq v
        | Error e -> if Option.is_none !first_error then first_error := Some e)
      ready
  in
  let rec drive () =
    if (not !eof) && !submitted - !emitted < queue_capacity then begin
      (match produce () with
      | Eof -> eof := true
      | Item item ->
        Mutex.lock st.lock;
        Queue.push (!submitted, item) st.queue;
        incr submitted;
        Condition.signal st.work_available;
        let ready = drain_ready () in
        Mutex.unlock st.lock;
        emit ready
      | Block ->
        (* nothing to submit right now: keep the output moving *)
        Mutex.lock st.lock;
        let ready = drain_ready () in
        Mutex.unlock st.lock;
        emit ready);
      drive ()
    end
    else if !eof && !submitted = !emitted then ()
    else begin
      Mutex.lock st.lock;
      let ready = ref (drain_ready ()) in
      while !ready = [] && !emitted < !submitted do
        Condition.wait st.progress st.lock;
        ready := drain_ready ()
      done;
      Mutex.unlock st.lock;
      emit !ready;
      drive ()
    end
  in
  let finish () =
    Mutex.lock st.lock;
    st.closed <- true;
    Condition.broadcast st.work_available;
    Mutex.unlock st.lock;
    List.iter Domain.join domains
  in
  (match drive () with
  | () -> finish ()
  | exception e ->
    (* a raising consumer must not leak worker domains *)
    finish ();
    raise e);
  (match !first_error with Some e -> raise e | None -> ());
  !emitted

let stream ?workers ?queue_capacity ~produce ~consume f =
  stream_poll ?workers ?queue_capacity
    ~produce:(fun () ->
      match produce () with Some item -> Item item | None -> Eof)
    ~consume f
