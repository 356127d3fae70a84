(** Deterministic pseudo-random numbers (splitmix64).

    All randomness in workloads and tests flows through an explicit [t] so
    every experiment is reproducible from its seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val copy : t -> t

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val bytes : t -> int -> bytes
(** [bytes t len] is [len] fresh bytes, the values of [len] successive
    [int t 256] calls in order, and leaves [t] where those calls would;
    it allocates only the result. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val split : t -> t
(** A new generator deterministically derived from (and advancing) [t]. *)
