(** Discrete-event simulation engine: a monotone virtual clock and a binary
    heap of timestamped callbacks.  Replaces the wall-clock of the paper's
    Mininet emulation with a deterministic, reproducible timeline. *)

type t

(** A handle for cancelling a scheduled event. *)
type event

(** [create ()] makes an engine with the clock at [0.0]. *)
val create : unit -> t

(** [now e] is the current virtual time in seconds. *)
val now : t -> float

(** [schedule_at e t f] runs [f] at absolute time [t].  Events fire in
    [(time, insertion)] order: FIFO among equal timestamps.
    @raise Invalid_argument if [t] is in the past. *)
val schedule_at : t -> float -> (unit -> unit) -> event

(** [schedule_in e dt f] runs [f] after [dt >= 0] seconds. *)
val schedule_in : t -> float -> (unit -> unit) -> event

(** [cancel ev] prevents a pending event from firing (idempotent; events
    that already ran are unaffected).  Cancelled events are purged from the
    heap in bulk once they outnumber the live ones, so long runs that
    cancel many timers (e.g. TCP retransmits) do not bloat the heap. *)
val cancel : event -> unit

(** [run e] processes events in timestamp order (FIFO among equal
    timestamps) until the queue empties or {!stop} is called. *)
val run : t -> unit

(** [run_until e t] processes events with timestamp [<= t], then sets the
    clock to [t]. *)
val run_until : t -> float -> unit

(** [stop e] makes {!run} return after the current callback. *)
val stop : t -> unit

(** [pending e] is the number of queued (uncancelled) events.  O(1): the
    engine counts cancellations instead of scanning the heap. *)
val pending : t -> int

(** [processed e] counts callbacks run so far (for bench reporting). *)
val processed : t -> int

(** [heap_peak e] is the high-watermark heap occupancy (queued events,
    including cancelled ones still awaiting purge) — an engine queue-depth
    gauge for the metrics registry. *)
val heap_peak : t -> int
