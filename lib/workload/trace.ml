(** Synthetic office/engineering traces.

    The paper characterizes its target workload via the Berkeley
    trace-driven analysis (reference [5]): many small files (mostly under
    8 KB), read sequentially and in their entirety, with lifetimes often
    under a day and highly skewed access.  [generate] produces an event
    stream with those properties; [replay] runs it against any file
    system, so a single "realistic mix" number can be compared across
    systems (the figures isolate one behaviour each; a trace mixes them).

    A trace is an {!Op.t} list, so it prints and parses in the op text
    form, one op per line. *)

(* Generation *)

(* File sizes: the office/engineering distribution — most files small,
   a long tail.  Buckets approximate the trace study: 80% <= 8 KB. *)
let sample_size rng =
  let r = Lfs_util.Rng.float rng 1.0 in
  if r < 0.35 then 512 + Lfs_util.Rng.int rng 1024
  else if r < 0.65 then 1024 + Lfs_util.Rng.int rng 4096
  else if r < 0.85 then 4096 + Lfs_util.Rng.int rng 8192
  else if r < 0.97 then 8192 + Lfs_util.Rng.int rng 65536
  else 65536 + Lfs_util.Rng.int rng 262144

type gen_config = {
  events : int;
  dirs : int;  (** directory fan-out *)
  target_live : int;  (** steady-state live-file population *)
  read_fraction : float;
  overwrite_fraction : float;
  zipf_theta : float;  (** skew of read/overwrite targets *)
}

let default_gen =
  {
    events = 20_000;
    dirs = 20;
    target_live = 2_000;
    read_fraction = 0.45;
    overwrite_fraction = 0.15;
    zipf_theta = 0.9;
  }

let generate ?(seed = 42) ?(config = default_gen) () =
  let rng = Lfs_util.Rng.create seed in
  let zipf = Lfs_util.Zipf.create ~n:(max 1 config.target_live) ~theta:config.zipf_theta in
  (* Live population as a growable array of paths; Zipf rank 0 = most
     recently created (young files are the hot ones, as in the study). *)
  let live = ref [||] in
  let next_id = ref 0 in
  (* One event is one or two ops.  A write's content seed is its
     event's index. *)
  let ops = ref [] in
  let event = ref 0 in
  let emit event_ops =
    ops := List.rev_append event_ops !ops;
    incr event
  in
  for d = 0 to config.dirs - 1 do
    emit [ Op.Mkdir (Printf.sprintf "/dir%03d" d) ]
  done;
  let fresh_path () =
    let id = !next_id in
    incr next_id;
    Printf.sprintf "/dir%03d/f%06d" (id mod config.dirs) id
  in
  let pick_live () =
    let n = Array.length !live in
    if n = 0 then None
    else begin
      let rank = Lfs_util.Zipf.sample zipf rng in
      (* Rank 0 = youngest. *)
      Some (min (n - 1) rank)
    end
  in
  let create () =
    let path = fresh_path () in
    let len = sample_size rng in
    emit [ Op.Create path; Op.Write { path; off = 0; seed = !event; len } ];
    live := Array.append [| path |] !live
  in
  let delete_oldest_biased () =
    let n = Array.length !live in
    if n > 0 then begin
      (* Deletions hit old files: sample from the cold end. *)
      let idx = n - 1 - min (n - 1) (Lfs_util.Rng.int rng (max 1 (n / 2))) in
      emit [ Op.Delete !live.(idx) ];
      live := Array.append (Array.sub !live 0 idx)
                (Array.sub !live (idx + 1) (n - idx - 1))
    end
  in
  for _ = 1 to config.events do
    let r = Lfs_util.Rng.float rng 1.0 in
    if r < config.read_fraction then begin
      match pick_live () with
      | Some i -> emit [ Op.Read { path = !live.(i); range = None } ]
      | None -> create ()
    end
    else if r < config.read_fraction +. config.overwrite_fraction then begin
      match pick_live () with
      | Some i ->
          let len = sample_size rng in
          emit [ Op.Write { path = !live.(i); off = 0; seed = !event; len } ]
      | None -> create ()
    end
    else if Array.length !live >= config.target_live then begin
      (* At steady state, births and deaths alternate. *)
      if Lfs_util.Rng.bool rng then delete_oldest_biased () else create ()
    end
    else create ()
  done;
  List.rev !ops

(* Replay *)

type result = {
  label : string;
  ops : int;
  elapsed_us : int;
  ops_per_sec : float;
  bytes_written : int;
  bytes_read : int;
}

let replay inst ops =
  let t0 = Driver.now_us inst in
  let bytes_written, bytes_read =
    List.fold_left
      (fun (w, r) op ->
        match (op, Op.apply inst op) with
        | _, Op.Data b -> (w, r + Bytes.length b)
        | (Op.Write { len; _ } | Op.Append { len; _ }), _ -> (w + len, r)
        | _ -> (w, r))
      (0, 0) ops
  in
  Driver.sync inst;
  let elapsed_us = Driver.now_us inst - t0 in
  let n = List.length ops in
  let result =
    {
      label = Driver.label inst;
      ops = n;
      elapsed_us;
      ops_per_sec =
        (if elapsed_us <= 0 then infinity
         else float_of_int n /. (float_of_int elapsed_us /. 1e6));
      bytes_written;
      bytes_read;
    }
  in
  Driver.sanitize inst;
  result
