(** A unified metrics registry: named counters, gauges and log2-bucketed
    histograms, all backed by preallocated int storage.

    Design goals, in order:

    - {b Zero allocation on the hot path.}  [incr], [add], [set], [set_max]
      and [observe] allocate 0 minor words.  Every scalar lives in a
      registry-owned [int array]; a handle is a (registry, index) pair and
      each update is one array read-modify-write.  Histogram buckets are a
      preallocated [int array] per histogram.
    - {b Determinism.}  Snapshots iterate metrics in registration order.
      Shard registries ([shards]/[merge_into]) merge with commutative,
      associative operations (sum for counters and histograms, max for
      gauges), so a fan-out over [Util.Pool] produces byte-identical
      snapshots at any [-j].
    - {b One schema.}  Metric names are [area/metric] slugs
      (e.g. ["svc/cache-hits"], ["netsim/drop-ttl"], ["svc/latency-ns"]);
      histograms of durations carry a [-ns] suffix and store integer
      nanoseconds.

    Registries are single-domain structures: a registry must only be
    mutated from the domain that owns it.  Cross-domain aggregation goes
    through [shards] (one private registry per task index) and
    [merge_into] after the join. *)

type t

val create : unit -> t

(** {1 Scalar metrics} *)

type counter
type gauge

(** [counter t name] registers a monotonically increasing counter.
    Raises [Invalid_argument] if [name] is already registered. *)
val counter : t -> string -> counter

(** [gauge t name] registers a last-value-wins (or high-watermark, via
    [set_max]) gauge. *)
val gauge : t -> string -> gauge

(** [probe t name f] registers a read-only gauge whose value is sampled by
    calling [f] at snapshot/export time only — for values already tracked
    elsewhere (engine event counts, cache occupancy, derived ratios).
    Probes are skipped by [shards]/[merge_into]. *)
val probe : t -> string -> (unit -> int) -> unit

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> int -> unit

(** [set_max g v] raises the gauge to [v] if [v] is larger — a
    high-watermark update. *)
val set_max : gauge -> int -> unit

val gauge_value : gauge -> int

(** {1 Histograms}

    Sub-bucketed base-2 histograms (HdrHistogram-style, 8 sub-buckets per
    octave): values 0..15 are exact, larger values land in a bucket whose
    relative width is <= 1/8.  Buckets are preallocated; [observe] is one
    bucket-index computation plus three int updates. *)

type histogram

val histogram : t -> string -> histogram
val observe : histogram -> int -> unit

(** [observe_s h seconds] records a duration in seconds as integer
    nanoseconds. *)
val observe_s : histogram -> float -> unit

val h_count : histogram -> int
val h_sum : histogram -> int

(** [h_bucket h b] is the raw occupancy of bucket [b]. *)
val h_bucket : histogram -> int -> int

(** [h_quantile h p] is an upper bound for the nearest-rank [p]-th
    percentile (rank [ceil (p/100 * count)] over the recorded values):
    the inclusive upper bound of the bucket containing that rank.  It
    exceeds the exact nearest-rank value by at most one bucket width.
    Returns 0 for an empty histogram. *)
val h_quantile : histogram -> float -> int

(** {2 Bucket geometry} — exposed for tests and exporters. *)

val n_buckets : int
val bucket_of_value : int -> int

(** [bucket_bounds b] is the inclusive [(lo, hi)] value range of bucket
    [b].  Bucket 0 holds every value <= 0 and reports [(min_int, 0)]. *)
val bucket_bounds : int -> int * int

(** {1 Sharding and merging} *)

(** [shards t ~n] creates [n] fresh registries with the same schema as [t]
    (same names, kinds and registration order; probes omitted), all values
    zero.  Typical use: one shard per [Util.Pool] task index, merged after
    the join. *)
val shards : t -> n:int -> t array

(** [merge_into ~into src] folds [src] into [into]: counters and histogram
    buckets/count/sum add, gauges take the max.  Every metric of [src]
    must exist in [into] with the same kind.  Sum and max are commutative
    and associative, so any merge order yields the same result. *)
val merge_into : into:t -> t -> unit

(** {1 Enumeration} — registration order, for exporters. *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Probe of (unit -> int)
  | Histogram of histogram

val metrics : t -> (string * metric) list

(** [read t name] samples a scalar metric (counter, gauge or probe) by
    name.  Raises [Not_found] for unknown names and histograms. *)
val read : t -> string -> int

val find : t -> string -> metric option
