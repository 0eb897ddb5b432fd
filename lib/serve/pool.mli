(** OCaml 5 [Domain]-based worker pool with a bounded work queue: the
    engine {!Serve} runs every batch and daemon connection on.

    Items are pulled lazily from a producer, at most [queue_capacity]
    items are in flight (submitted but not yet consumed - this bounds
    both the work queue and the reorder buffer, giving the producer
    backpressure), and results are handed to the consumer {e in
    submission order} from the calling domain, so output is
    deterministic regardless of worker count or completion
    interleaving.  {!stream} pulls from a plain producer; {!stream_poll}
    also lets the producer report that it has nothing right now.

    The job function runs on worker domains: it must not touch
    non-synchronized shared mutable state (see the reentrancy notes on
    {!Qaoa_core.Compile.compile}).  Exceptions raised by a job are
    captured; remaining items still run, and the first exception in
    submission order is re-raised after all workers have been joined. *)

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val stream :
  ?workers:int ->
  ?queue_capacity:int ->
  produce:(unit -> 'a option) ->
  consume:(int -> 'b -> unit) ->
  ('a -> 'b) ->
  int
(** [stream ~produce ~consume f] pulls items from [produce] until it
    returns [None], runs [f] on a pool of [workers] domains, and calls
    [consume seq result] in strictly increasing [seq] (submission)
    order.  [produce] and [consume] both run on the calling domain
    only.  Returns the number of items processed.  [queue_capacity]
    (default 64) bounds the in-flight window.  @raise Invalid_argument
    if [workers < 1] or [queue_capacity < 1]. *)

type 'a poll =
  | Item of 'a
  | Block
      (** no item at this instant, stream not over: the driver drains
          completed results and polls again.  A [Block]-returning
          producer must do its own blocking, or the driver busy-spins.
          It should block until either new input or an [on_complete]
          call arrives (the daemon selects on a self-pipe that
          [on_complete] writes); a producer that only waits out a
          timeout delays every response by up to that timeout. *)
  | Eof

val stream_poll :
  ?workers:int ->
  ?queue_capacity:int ->
  ?on_complete:(unit -> unit) ->
  produce:(unit -> 'a poll) ->
  consume:(int -> 'b -> unit) ->
  ('a -> 'b) ->
  int
(** {!stream} generalized for producers that wait on external input
    (the daemon's socket select loop): [Block] lets completed responses
    flow to [consume] while the producer has nothing to submit, which
    is what keeps a request/await client from deadlocking against a
    batch-oriented drain.

    [on_complete] (default: nothing) runs on the worker domain once per
    item, after that item's result is visible to the driver, so a
    driver woken by it always finds the result ready to drain.  It
    must be safe to call from several domains at once and must not
    raise. *)
