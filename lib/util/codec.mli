(** Little-endian byte codecs for on-disk structures.

    Every persistent LFS/FFS structure (superblocks, inodes, inode-map
    blocks, segment summaries, checkpoint regions, directory blocks) is
    serialized through these cursors, so layout is defined in exactly one
    place per structure and round-trip property tests cover them all. *)

exception Error of string
(** Raised on malformed input (short buffer, bad tag, bad magic). *)

(** {1 Encoding} *)

type encoder

val encoder : ?capacity:int -> unit -> encoder
(** A growable encoder over a fresh buffer. *)

val encoder_into : bytes -> off:int -> len:int -> encoder
(** An encoder that writes straight into the [len]-byte window of [buf]
    at [off]: no buffer of its own, never grown.  Fixed-size records
    (inodes) are encoded in place this way.  {!pos} and {!pad_to} count
    from the window's start.  A value that fails its range check raises
    before it is written, but fields written before it stay written.
    @raise Error if the window lies outside [buf], and on any write that
    would run past its end. *)

val u8 : encoder -> int -> unit
val u16 : encoder -> int -> unit
val u32 : encoder -> int -> unit
(** [u32] accepts [0 .. 2^32-1] stored in an OCaml [int]. *)

val i64 : encoder -> int64 -> unit
val int_as_i64 : encoder -> int -> unit
val bool : encoder -> bool -> unit
val bytes : encoder -> bytes -> unit
(** Raw bytes, no length prefix. *)

val string_u16 : encoder -> string -> unit
(** Length-prefixed (u16) string.  @raise Error if longer than 65535. *)

val pos : encoder -> int
(** Bytes written so far. *)

val pad_to : encoder -> int -> unit
(** [pad_to e n] appends zero bytes until the encoder holds [n] bytes.
    @raise Error if already longer than [n]. *)

val to_bytes : encoder -> bytes
(** A copy of the bytes written so far. *)

(** {1 Decoding} *)

type decoder

val decoder : ?off:int -> ?len:int -> bytes -> decoder
val read_u8 : decoder -> int
val read_u16 : decoder -> int
val read_u32 : decoder -> int
val read_i64 : decoder -> int64
val read_int_as_i64 : decoder -> int
val read_bool : decoder -> bool
val read_bytes : decoder -> int -> bytes
val read_string_u16 : decoder -> string
val remaining : decoder -> int
val skip : decoder -> int -> unit
