(** Synthetic office/engineering traces.

    The paper characterizes its target workload via the Berkeley
    trace-driven analysis (reference [5]): many small files (mostly under
    8 KB), read sequentially and in their entirety, lifetimes often under
    a day, highly skewed access.  {!generate} produces an op stream with
    those properties; {!replay} runs it against any file system.  A
    trace prints and parses in the {!Op} text form, one op per line. *)

(** {1 Generation} *)

type gen_config = {
  events : int;  (** workload events; a file creation is two ops *)
  dirs : int;  (** directory fan-out *)
  target_live : int;  (** steady-state live-file population *)
  read_fraction : float;
  overwrite_fraction : float;
  zipf_theta : float;  (** skew of read/overwrite targets *)
}

val default_gen : gen_config

val generate : ?seed:int -> ?config:gen_config -> unit -> Op.t list
(** A well-formed trace: every op succeeds when replayed in order on an
    empty file system.  A created file is a [Create] followed by a
    [Write]; every [Write] starts at offset 0 and its content seed is
    the index of the event that issued it. *)

(** {1 Replay} *)

type result = {
  label : string;
  ops : int;
  elapsed_us : int;
  ops_per_sec : float;
  bytes_written : int;
  bytes_read : int;
}

val replay : Lfs_vfs.Fs_intf.instance -> Op.t list -> result
(** {!Op.apply} each op in order, then sync.  [ops_per_sec] is over
    simulated time; the bytes count [Write]/[Append] lengths and
    [Read] results. *)
