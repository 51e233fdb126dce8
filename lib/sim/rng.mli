(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit
    [Rng.t] so that campaigns are exactly reproducible from their seed. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** Independent copy sharing the current position. *)

val reseed : t -> int64 -> unit
(** [reseed t seed] rewinds [t] to the start of [seed]'s stream, exactly
    as if it had been created with [create seed]. Lets long-lived
    workers reuse one generator across runs without allocating. *)

val save : t -> int64
(** Capture the current stream position: [reseed t (save t)] is the
    identity, so [save]/[reseed] snapshot and restore a generator
    without touching its remaining stream. *)

val split : t -> t
(** Derive a statistically independent child generator, advancing the
    parent by one step. Used to give each subsystem its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t n] is uniform over [0, n). Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform over [0, x). *)

val chance : t -> float -> bool
(** [chance t p] is [float t 1.0 < p]: the same single draw, compared
    without boxing the float. *)

val bool : t -> bool

val bit64 : t -> int
(** Uniform bit position in [0, 64). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_weighted : t -> (float * 'a) list -> 'a
(** Sample according to the given non-negative weights (need not be
    normalised). Raises [Invalid_argument] on an empty or all-zero list. *)

val choose_index_cum : t -> float array -> int
(** [choose_index_cum t cum] samples an index given the cumulative
    partial sums of a weight list ([cum.(i) = w0 +. ... +. wi]).
    Draw-for-draw and bit-for-bit equivalent to [choose_weighted] over
    the originating list, without its per-draw list traversal; hot paths
    precompute [cum] once with {!cumulative}. *)

val cumulative : (float * 'a) list -> float array
(** Cumulative partial sums of the weights, in list order, for
    {!choose_index_cum}. Raises [Invalid_argument] on an empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
