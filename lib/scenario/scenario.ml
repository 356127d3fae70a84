(* The scenario compiler: one declarative spec type, four compilation
   targets (stream-vs-model, multi-client engine, crash-point sweep,
   read-back under transient faults), shared seed management, shrinking
   and replay.  This module is the single sanctioned caller of the raw
   fault machinery (Crashpoint sweeps, Faulty.attach) outside
   lib/workload — the scenario-entry lint rule points everyone else
   here. *)

module Engine = Lfs_workload.Engine
module Crashpoint = Lfs_workload.Crashpoint
module Driver = Lfs_workload.Driver
module Op = Lfs_workload.Op
module Setup = Lfs_workload.Setup
module Faulty = Lfs_disk.Faulty
module Io = Lfs_disk.Io
module Volume = Lfs_disk.Volume
module Metrics = Lfs_obs.Metrics
module Json = Lfs_obs.Json
module Fs_intf = Lfs_vfs.Fs_intf
module Rng = Lfs_util.Rng

type system = [ `Lfs | `Ffs ]

type weighted =
  | Create of int
  | Mkdir of int
  | Read of int
  | Overwrite of int
  | Append of int
  | Truncate of int
  | Rename of int
  | Delete of int
  | Sync of int

type think = Engine.think = Constant of int | Uniform of int * int

type fault =
  | Torn
  | Transient of { rate : float; burst : int }
  | Bad_sectors of int list
  | Crash_after of int
  | Checkpoint_bad_sector

type t = {
  sc_system : system;
  sc_mix : weighted list;
  sc_count : int;
  sc_payload : int;
  sc_clients : int option;
  sc_think : think option;
  sc_faults : fault list;
  sc_sweep : bool;
  sc_boundaries : int;
  sc_read_back : bool;
  sc_invariants : (string * (Fs_intf.instance -> string list)) list;
  sc_volume : (Volume.policy * int) option;
  sc_fault_member : int option;
  sc_seed : int;
  sc_cli : string list;
}

let default_mix =
  [
    Create 3;
    Mkdir 2;
    Read 3;
    Overwrite 4;
    Append 2;
    Truncate 1;
    Rename 2;
    Delete 2;
    Sync 1;
  ]

let default_count = 48
let default_payload = 2500
let default_boundaries = 48

let make =
  {
    sc_system = `Lfs;
    sc_mix = default_mix;
    sc_count = default_count;
    sc_payload = default_payload;
    sc_clients = None;
    sc_think = None;
    sc_faults = [];
    sc_sweep = false;
    sc_boundaries = default_boundaries;
    sc_read_back = false;
    sc_invariants = [];
    sc_volume = None;
    sc_fault_member = None;
    sc_seed = 1;
    sc_cli = [];
  }

let system s spec = { spec with sc_system = s }
let ops mix spec = { spec with sc_mix = mix }
let count n spec = { spec with sc_count = n }
let payload n spec = { spec with sc_payload = n }
let clients n spec = { spec with sc_clients = Some n }
let think th spec = { spec with sc_think = Some th }
let faults fl spec = { spec with sc_faults = fl }
let crash_sweep spec = { spec with sc_sweep = true }
let boundaries n spec = { spec with sc_boundaries = n }
let read_back spec = { spec with sc_read_back = true }

let invariant ?(name = "user") f spec =
  { spec with sc_invariants = (name, f) :: spec.sc_invariants }

let volume policy members spec = { spec with sc_volume = Some (policy, members) }
let fault_member m spec = { spec with sc_fault_member = Some m }
let seed s spec = { spec with sc_seed = s }
let cli_flags fl spec = { spec with sc_cli = spec.sc_cli @ fl }
let fsck = Driver.integrity

(* ---------- op mix ---------- *)

type kind =
  | KCreate
  | KMkdir
  | KRead
  | KOverwrite
  | KAppend
  | KTruncate
  | KRename
  | KDelete
  | KSync

let kind_of = function
  | Create _ -> KCreate
  | Mkdir _ -> KMkdir
  | Read _ -> KRead
  | Overwrite _ -> KOverwrite
  | Append _ -> KAppend
  | Truncate _ -> KTruncate
  | Rename _ -> KRename
  | Delete _ -> KDelete
  | Sync _ -> KSync

let weight_of = function
  | Create w | Mkdir w | Read w | Overwrite w | Append w | Truncate w
  | Rename w | Delete w | Sync w ->
      w

let kind_name = function
  | KCreate -> "create"
  | KMkdir -> "mkdir"
  | KRead -> "read"
  | KOverwrite -> "overwrite"
  | KAppend -> "append"
  | KTruncate -> "truncate"
  | KRename -> "rename"
  | KDelete -> "delete"
  | KSync -> "sync"

let weighted_of_name name w =
  match name with
  | "create" -> Create w
  | "mkdir" -> Mkdir w
  | "read" -> Read w
  | "overwrite" -> Overwrite w
  | "append" -> Append w
  | "truncate" -> Truncate w
  | "rename" -> Rename w
  | "delete" -> Delete w
  | "sync" -> Sync w
  | other -> Driver.fail "scenario: unknown op kind %S in mix" other

let mix_to_string mix =
  String.concat ","
    (List.map
       (fun w -> Printf.sprintf "%s=%d" (kind_name (kind_of w)) (weight_of w))
       mix)

let mix_of_string s =
  String.split_on_char ',' s
  |> List.map (fun item ->
         match String.split_on_char '=' (String.trim item) with
         | [ name; w ] -> (
             match int_of_string_opt (String.trim w) with
             | Some w -> weighted_of_name (String.trim name) w
             | None -> Driver.fail "scenario: bad weight in mix item %S" item)
         | _ -> Driver.fail "scenario: bad mix item %S (want name=weight)" item)

let total_weight mix = List.fold_left (fun acc w -> acc + weight_of w) 0 mix

let kind_weight mix kinds =
  List.fold_left
    (fun acc w -> if List.mem (kind_of w) kinds then acc + weight_of w else acc)
    0 mix

(* Draw one kind, proportional to the weights. *)
let pick rng mix total =
  let r = Rng.int rng total in
  let rec go acc = function
    | [] -> KSync (* unreachable: total = sum of weights *)
    | w :: rest ->
        let acc = acc + weight_of w in
        if r < acc then kind_of w else go acc rest
  in
  go 0 mix

(* ---------- validation ---------- *)

let is_transient = function Transient _ -> true | _ -> false

let validate spec =
  if spec.sc_mix = [] then Driver.fail "scenario: empty op mix";
  List.iter
    (fun w ->
      if weight_of w < 0 then
        Driver.fail "scenario: negative weight for %s" (kind_name (kind_of w)))
    spec.sc_mix;
  if total_weight spec.sc_mix <= 0 then
    Driver.fail "scenario: op mix has zero total weight";
  if spec.sc_count < 1 then Driver.fail "scenario: count must be >= 1";
  if spec.sc_payload < 1 then Driver.fail "scenario: payload must be >= 1";
  if spec.sc_boundaries < 1 then Driver.fail "scenario: boundaries must be >= 1";
  (match spec.sc_clients with
  | Some n when n < 1 -> Driver.fail "scenario: clients must be >= 1"
  | Some n when spec.sc_count < n ->
      Driver.fail "scenario: count (%d) smaller than client count (%d)"
        spec.sc_count n
  | _ -> ());
  if spec.sc_think <> None && spec.sc_clients = None then
    Driver.fail "scenario: think time applies to engine mode (set clients)";
  let bad_sector = List.mem Checkpoint_bad_sector spec.sc_faults in
  let exclusive =
    (if spec.sc_sweep then 1 else 0)
    + (if spec.sc_read_back then 1 else 0)
    + (if bad_sector then 1 else 0)
    + if spec.sc_clients <> None then 1 else 0
  in
  if exclusive > 1 then
    Driver.fail
      "scenario: crash_sweep, read_back, Checkpoint_bad_sector and clients \
       are mutually exclusive run modes";
  if bad_sector && List.length spec.sc_faults > 1 then
    Driver.fail "scenario: Checkpoint_bad_sector composes with no other fault";
  if bad_sector && spec.sc_system = `Ffs then
    Driver.fail
      "scenario: Checkpoint_bad_sector exercises LFS checkpoint regions";
  List.iter
    (fun f ->
      match f with
      | Torn ->
          if not spec.sc_sweep then
            Driver.fail
              "scenario: Torn applies to crash sweeps (or use with_faults)"
      | Transient { rate; burst } ->
          if rate < 0.0 || rate > 1.0 then
            Driver.fail "scenario: transient rate %g outside [0,1]" rate;
          if burst < 1 then Driver.fail "scenario: transient burst must be >= 1";
          if spec.sc_sweep then
            Driver.fail "scenario: Transient does not compose with crash_sweep"
      | Bad_sectors _ ->
          Driver.fail
            "scenario: Bad_sectors is a scoped fault for with_faults, not a \
             whole-run fault"
      | Crash_after _ ->
          Driver.fail
            "scenario: Crash_after is a scoped fault for with_faults, not a \
             whole-run fault"
      | Checkpoint_bad_sector -> ())
    spec.sc_faults;
  if spec.sc_read_back && not (List.exists is_transient spec.sc_faults) then
    Driver.fail "scenario: read_back needs a Transient fault";
  (match spec.sc_volume with
  | Some (_, n) when n < 1 -> Driver.fail "scenario: volume members must be >= 1"
  | Some (Volume.Mirror, _) when spec.sc_sweep ->
      (* A mid-fan-out crash leaves mirror replicas divergent; which copy
         a later load-balanced read sees is unspecified, so the durable
         model cannot assert anything. *)
      Driver.fail "scenario: crash sweeps on mirror volumes are unsound"
  | Some _ when bad_sector ->
      Driver.fail "scenario: Checkpoint_bad_sector runs on a single disk"
  | _ -> ());
  match spec.sc_fault_member with
  | None -> ()
  | Some m -> (
      match spec.sc_volume with
      | None -> Driver.fail "scenario: fault_member needs a volume"
      | Some (_, n) ->
          if m < 0 || m >= n then
            Driver.fail "scenario: fault_member %d out of range (%d members)" m n;
          if spec.sc_sweep || spec.sc_read_back then
            Driver.fail
              "scenario: fault_member applies to stream/engine faults \
               (sweep and read_back drive whole-device scenarios)")

(* ---------- stream compilation ---------- *)

let names = [| "a"; "b"; "c"; "d" |]
let gen_name rng = names.(Rng.int rng (Array.length names))

let gen_path rng =
  "/"
  ^ String.concat "/"
      (match Rng.int rng 4 with
      | 0 | 1 -> [ gen_name rng ]
      | 2 -> [ gen_name rng; gen_name rng ]
      | _ -> [ gen_name rng; gen_name rng; gen_name rng ])

let steps_of spec =
  validate spec;
  let rng = Rng.create spec.sc_seed in
  let total = total_weight spec.sc_mix in
  List.init spec.sc_count (fun i ->
      match pick rng spec.sc_mix total with
      | KCreate -> Op.Create (gen_path rng)
      | KMkdir -> Op.Mkdir (gen_path rng)
      | KRead ->
          let path = gen_path rng in
          let off = Rng.int rng (2 * spec.sc_payload) in
          Op.Read
            { path; range = Some (off, 1 + Rng.int rng (2 * spec.sc_payload)) }
      | KOverwrite ->
          let path = gen_path rng in
          let len = Rng.int rng ((2 * spec.sc_payload) + 1) in
          Op.Write { path; off = 0; seed = (spec.sc_seed * 97) + i; len }
      | KAppend ->
          let path = gen_path rng in
          let len = Rng.int rng (spec.sc_payload + 1) in
          Op.Append { path; seed = (spec.sc_seed * 89) + i; len }
      | KTruncate ->
          let path = gen_path rng in
          Op.Truncate { path; size = Rng.int rng (2 * spec.sc_payload) }
      | KRename ->
          let src = gen_path rng in
          Op.Rename { src; dst = gen_path rng }
      | KDelete -> Op.Delete (gen_path rng)
      | KSync -> Op.Sync)

(* ---------- faults ---------- *)

type injection = { inj_writes : int; inj_faults : int; inj_crashed : bool }

let scenario_of_faults ?member ~seed fl =
  List.fold_left
    (fun scn f ->
      match f with
      | Torn -> { scn with Faulty.torn_write = true }
      | Transient { rate; burst } ->
          { scn with Faulty.read_error_rate = rate; read_error_burst = burst }
      | Bad_sectors l -> { scn with Faulty.bad_sectors = l }
      | Crash_after n -> { scn with Faulty.crash_after_writes = Some n }
      | Checkpoint_bad_sector ->
          Driver.fail
            "scenario: Checkpoint_bad_sector is a whole-run mode, not an \
             attachable fault")
    { Faulty.quiet with Faulty.seed; member }
    fl

let with_faults ?member ?(seed = 1) io fl f =
  let h = Faulty.attach io (scenario_of_faults ?member ~seed fl) in
  let snap () =
    {
      inj_writes = Faulty.writes_seen h;
      inj_faults = Faulty.faults_injected h;
      inj_crashed = Faulty.crashed h;
    }
  in
  let inj = ref (snap ()) in
  let finally () =
    inj := snap ();
    if Faulty.crashed h then Faulty.clear_crash h;
    Faulty.detach h
  in
  let r = Fun.protect ~finally f in
  (r, !inj)

(* ---------- shrinking ---------- *)

let shrink ~fails items =
  let fails_some l = fails l <> None in
  if not (fails_some items) then items
  else begin
    (* Zeller-Hildebrandt ddmin over subsequence complements. *)
    let rec ddmin items n =
      let len = List.length items in
      if len <= 1 then items
      else begin
        let chunk = max 1 (len / n) in
        let rec try_complements i =
          if i * chunk >= len then None
          else
            let complement =
              List.filteri
                (fun j _ -> j < i * chunk || j >= min len ((i + 1) * chunk))
                items
            in
            if
              complement <> []
              && List.length complement < len
              && fails_some complement
            then Some complement
            else try_complements (i + 1)
        in
        match try_complements 0 with
        | Some smaller -> ddmin smaller (max 2 (n - 1))
        | None -> if n >= len then items else ddmin items (min len (2 * n))
      end
    in
    let reduced = ddmin items 2 in
    (* Greedy single-removal pass: guarantees 1-minimality. *)
    let rec greedy i cur =
      if i >= List.length cur then cur
      else
        let without = List.filteri (fun j _ -> j <> i) cur in
        if without <> [] && fails_some without then greedy i without
        else greedy (i + 1) cur
    in
    greedy 0 reduced
  end

(* ---------- shared run plumbing ---------- *)

type stats = {
  ops_run : int;
  faults_injected : int;
  retries : int;
  backoff_us : int;
  read_errors : int;
  bad_sector_reads : int;
}

type failure = {
  message : string;
  steps : string list;
  original_steps : int;
  shrunk_steps : int;
  replay : string;
}

type report = {
  label : string;
  mode : string;
  seed_used : int;
  stats : stats;
  sweep : Crashpoint.outcome option;
  engine : Engine.result option;
  failure : failure option;
}

let zero_stats =
  {
    ops_run = 0;
    faults_injected = 0;
    retries = 0;
    backoff_us = 0;
    read_errors = 0;
    bad_sector_reads = 0;
  }

let stats_of_instance ?(ops_run = 0) ?(faults = 0) inst =
  let snap = Metrics.snapshot (Driver.metrics inst) in
  let c name = Option.value ~default:0 (Metrics.counter_value snap name) in
  {
    ops_run;
    faults_injected = faults;
    retries = c "io.retries";
    backoff_us = c "io.backoff_us";
    read_errors = c "disk.faults.read_errors";
    bad_sector_reads = c "disk.faults.bad_sector_reads";
  }

let small_instance spec =
  let io =
    Setup.make_io ~disk_mb:16 ~cpu:Lfs_disk.Cpu_model.free
      ?volume:spec.sc_volume ()
  in
  match spec.sc_system with
  | `Lfs -> Setup.lfs_on io ~config:Lfs_core.Config.small ()
  | `Ffs -> Setup.ffs_on io ~config:Lfs_ffs.Config.small ()

let engine_instance spec =
  let io = Setup.make_io ~disk_mb:64 ?volume:spec.sc_volume () in
  match spec.sc_system with
  | `Lfs -> Setup.lfs_on io ()
  | `Ffs -> Setup.ffs_on io ()

(* First violated user invariant, in declaration order. *)
let run_invariants spec inst =
  List.fold_left
    (fun acc (name, f) ->
      match acc with
      | Some _ -> acc
      | None -> (
          match f inst with
          | [] -> None
          | v :: _ -> Some (Printf.sprintf "invariant %s: %s" name v)))
    None
    (List.rev spec.sc_invariants)

let replay_command spec =
  let b = Buffer.create 96 in
  Buffer.add_string b "lfstool scenario";
  if spec.sc_system = `Ffs then Buffer.add_string b " --system ffs";
  if spec.sc_mix <> default_mix then
    Buffer.add_string b (" --mix " ^ mix_to_string spec.sc_mix);
  if spec.sc_count <> default_count then
    Buffer.add_string b (Printf.sprintf " --count %d" spec.sc_count);
  if spec.sc_payload <> default_payload then
    Buffer.add_string b (Printf.sprintf " --payload %d" spec.sc_payload);
  (match spec.sc_clients with
  | Some n -> Buffer.add_string b (Printf.sprintf " --clients %d" n)
  | None -> ());
  (match spec.sc_think with
  | Some (Constant c) -> Buffer.add_string b (Printf.sprintf " --think %d:%d" c c)
  | Some (Uniform (lo, hi)) ->
      Buffer.add_string b (Printf.sprintf " --think %d:%d" lo hi)
  | None -> ());
  if spec.sc_sweep then Buffer.add_string b " --sweep";
  (match spec.sc_volume with
  | Some (Volume.Mirror, n) ->
      Buffer.add_string b (Printf.sprintf " --volume mirror:%d" n)
  | Some (Volume.Stripe { chunk_sectors }, n) ->
      Buffer.add_string b (Printf.sprintf " --volume stripe:%d:%d" n chunk_sectors)
  | Some (Volume.Log_stripe { stripe_sectors }, n) ->
      Buffer.add_string b
        (Printf.sprintf " --volume log_stripe:%d:%d" n stripe_sectors)
  | None -> ());
  (match spec.sc_fault_member with
  | Some m -> Buffer.add_string b (Printf.sprintf " --fault-member %d" m)
  | None -> ());
  if spec.sc_boundaries <> default_boundaries then
    Buffer.add_string b (Printf.sprintf " --boundaries %d" spec.sc_boundaries);
  List.iter
    (fun f ->
      match f with
      | Torn -> Buffer.add_string b " --torn"
      | Transient { rate; burst } ->
          Buffer.add_string b (Printf.sprintf " --transient %g" rate);
          if burst <> 1 then
            Buffer.add_string b (Printf.sprintf " --burst %d" burst)
      | Checkpoint_bad_sector -> Buffer.add_string b " --bad-sector"
      | Bad_sectors _ | Crash_after _ ->
          (* Scoped faults have no whole-run CLI form. *)
          ())
    spec.sc_faults;
  if spec.sc_read_back then Buffer.add_string b " --read-back";
  List.iter (fun f -> Buffer.add_string b (" " ^ f)) spec.sc_cli;
  Buffer.add_string b (Printf.sprintf " --replay %d" spec.sc_seed);
  Buffer.contents b

let make_failure spec ~message ~steps ~original =
  {
    message;
    steps;
    original_steps = original;
    shrunk_steps = List.length steps;
    replay = replay_command spec;
  }

(* ---------- stream mode ---------- *)

let describe_reply = function
  | Ok Op.Done -> "ok"
  | Error () -> "error"
  | Ok (Op.Data b) -> Printf.sprintf "%d bytes" (Bytes.length b)
  | Ok (Op.Names l) -> Printf.sprintf "[%s]" (String.concat ";" l)

(* Execute [steps] on a fresh instance in lockstep with the model.
   Returns the first failure message, if any, plus run stats. *)
let exec_stream spec steps =
  let exception Stop of string in
  let inst = small_instance spec in
  let label = Driver.label inst in
  let model = Model_fs.create () in
  let stop fmt = Printf.ksprintf (fun m -> raise (Stop m)) fmt in
  let do_step i op =
    (* Both sides append at the model's file size, so the file system
       sees a plain write and no extra stat. *)
    let resolved =
      match op with
      | Op.Append { path; seed; len } ->
          let off =
            match Model_fs.apply model (Op.Read { path; range = None }) with
            | Ok (Op.Data b) -> Bytes.length b
            | _ -> 0
          in
          Op.Write { path; off; seed; len }
      | op -> op
    in
    let expect = Model_fs.apply model resolved in
    let got = Result.map_error ignore (Op.run inst resolved) in
    if expect <> got then
      stop "step %d (%s): model says %s, %s says %s" i (Op.to_string op)
        (describe_reply expect) label (describe_reply got)
  in
  let final_check tag =
    List.iter
      (fun (path, data) ->
        match
          Op.run inst (Op.Read { path; range = Some (0, Bytes.length data + 1) })
        with
        | Ok (Op.Data b) when Bytes.equal b data -> ()
        | Ok (Op.Data b) ->
            stop "%s: %s content mismatch: model %d bytes, %s read %d" tag path
              (Bytes.length data) label (Bytes.length b)
        | _ -> stop "%s: %s unreadable on %s" tag path label)
      (List.sort compare (Model_fs.all_files model));
    List.iter
      (fun path ->
        if path <> "/" && not (Driver.exists inst path) then
          stop "%s: directory %s missing on %s" tag path label)
      (Model_fs.all_dirs model)
  in
  let run_all () =
    List.iteri do_step steps;
    final_check "final tree";
    Driver.flush_caches inst;
    final_check "after flush_caches";
    (match run_invariants spec inst with
    | Some m -> raise (Stop m)
    | None -> ());
    Driver.sanitize inst
  in
  let transient = List.filter is_transient spec.sc_faults in
  let faults = ref 0 in
  let msg =
    try
      (if transient = [] then run_all ()
       else
         let (), inj =
           with_faults ?member:spec.sc_fault_member ~seed:spec.sc_seed
             (Driver.io inst) transient run_all
         in
         faults := inj.inj_faults);
      None
    with
    | Stop m -> Some m
    | Driver.Benchmark_failure m -> Some m
    | Io.Read_failed { sector; attempts } ->
        Some
          (Printf.sprintf "read of sector %d failed after %d attempts" sector
             attempts)
    | Faulty.Crash -> Some "unexpected crash fault"
  in
  (msg, stats_of_instance ~ops_run:(List.length steps) ~faults:!faults inst)

(* A failing run's report: shrink [items] against [oracle] (the run
   itself, returning its first violation) and re-derive the message on
   the minimal counterexample. *)
let counterexample spec ~print ~oracle items = function
  | None -> None
  | Some _ ->
      let shrunk = shrink ~fails:oracle items in
      let message =
        match oracle shrunk with
        | Some m -> m
        | None -> "shrunk counterexample no longer reproduces"
      in
      Some
        (make_failure spec ~message ~steps:(List.map print shrunk)
           ~original:(List.length items))

let run_stream spec =
  let steps = steps_of spec in
  let msg, stats = exec_stream spec steps in
  let oracle st = fst (exec_stream spec st) in
  (stats, counterexample spec ~print:Op.to_string ~oracle steps msg)

(* ---------- crash-op compilation (sweep / read-back modes) ---------- *)

(* Compile the mix to a Crashpoint op list respecting its contract:
   every path written at most once, never reused after delete, syncs
   anchoring the durable model.  File-shaped ops (create/write/etc.)
   collapse into a create+write pair on a fresh path. *)
let crash_ops spec =
  validate spec;
  let rng = Rng.create spec.sc_seed in
  let wf =
    max 1
      (kind_weight spec.sc_mix
         [ KCreate; KMkdir; KRead; KOverwrite; KAppend; KTruncate; KRename ])
  in
  let wd = kind_weight spec.sc_mix [ KDelete ] in
  let wsy = max 1 (kind_weight spec.sc_mix [ KSync ]) in
  let total = wf + wd + wsy in
  let next = ref 0 in
  let live = ref [] in
  let acc = ref [ Crashpoint.Mkdir "/d1"; Crashpoint.Mkdir "/d0" ] in
  for i = 0 to spec.sc_count - 1 do
    let r = Rng.int rng total in
    if r < wf then begin
      let p = Printf.sprintf "/d%d/f%d" (!next mod 2) !next in
      incr next;
      acc :=
        Crashpoint.Write
          { path = p; seed = (spec.sc_seed * 131) + i; len = spec.sc_payload + (67 * i) }
        :: Crashpoint.Create p :: !acc;
      live := p :: !live
    end
    else if r < wf + wd then
      match !live with
      | [] -> acc := Crashpoint.Sync :: !acc
      | p :: rest ->
          live := rest;
          acc := Crashpoint.Delete p :: !acc
    else acc := Crashpoint.Sync :: !acc
  done;
  acc := Crashpoint.Sync :: !acc;
  List.rev !acc

(* Fault-free replay of a crash-op list so user invariant hooks get a
   surviving instance to inspect even in sweep modes. *)
let clean_replay spec ops =
  if spec.sc_invariants = [] then None
  else
    let inst = small_instance spec in
    try
      List.iter (fun op -> ignore (Op.apply inst (Crashpoint.to_op op))) ops;
      match run_invariants spec inst with
      | Some m -> Some m
      | None ->
          Driver.sanitize inst;
          None
    with Driver.Benchmark_failure m -> Some m

(* First violation of a sweep or read-back run over [ops], else of the
   user invariants on a clean replay. *)
let verdict spec ops = function
  | v :: _ -> Some v
  | [] -> clean_replay spec ops

let print_crash_op op = Op.to_string (Crashpoint.to_op op)

let run_sweep spec =
  let torn = List.mem Torn spec.sc_faults in
  let ops = crash_ops spec in
  let sweep ops =
    Crashpoint.sweep ?volume:spec.sc_volume ~torn
      ~max_boundaries:spec.sc_boundaries ~seed:spec.sc_seed spec.sc_system ops
  in
  (* A shrunk subsequence can lose the [mkdir] a later [create] needs;
     the sweep's probe run then fails.  A list that cannot run does not
     reproduce the failure. *)
  let oracle ops =
    match sweep ops with
    | o -> verdict spec ops o.Crashpoint.violations
    | exception Driver.Benchmark_failure _ -> None
  in
  let outcome = sweep ops in
  let failure =
    counterexample spec ~print:print_crash_op ~oracle ops
      (verdict spec ops outcome.Crashpoint.violations)
  in
  let stats =
    {
      zero_stats with
      ops_run = List.length ops;
      faults_injected = outcome.Crashpoint.faults;
    }
  in
  (stats, Some outcome, failure)

let run_read_fault spec =
  let rate, burst =
    match List.find_opt is_transient spec.sc_faults with
    | Some (Transient { rate; burst }) -> (rate, burst)
    | _ -> Driver.fail "scenario: read_back needs a Transient fault"
  in
  let ops = crash_ops spec in
  let read_fault ops =
    Crashpoint.read_fault_run ?volume:spec.sc_volume ~rate ~burst
      ~seed:spec.sc_seed spec.sc_system ops
  in
  let o = read_fault ops in
  (* A shrunk list reproduces a failure only in the same conditions.
     As in [run_sweep], a list that cannot run does not; nor, when the
     full run injected faults, does a list that injects none, which
     fails only for that. *)
  let oracle ops =
    match read_fault ops with
    | exception Driver.Benchmark_failure _ -> None
    | o' when o'.Crashpoint.read_errors = 0 && o.Crashpoint.read_errors > 0 ->
        None
    | o' -> verdict spec ops o'.Crashpoint.rf_violations
  in
  let failure =
    counterexample spec ~print:print_crash_op ~oracle ops
      (verdict spec ops o.Crashpoint.rf_violations)
  in
  let stats =
    {
      zero_stats with
      ops_run = List.length ops;
      faults_injected = o.Crashpoint.read_errors;
      retries = o.Crashpoint.retries;
      backoff_us = o.Crashpoint.backoff_us;
      read_errors = o.Crashpoint.read_errors;
    }
  in
  (stats, failure)

let run_bad_sector spec =
  let o = Crashpoint.bad_sector_run ~seed:spec.sc_seed () in
  let failure =
    match verdict spec (Crashpoint.smallfile ()) o.Crashpoint.bs_violations with
    | None -> None
    | Some message -> Some (make_failure spec ~message ~steps:[] ~original:0)
  in
  let stats =
    {
      zero_stats with
      faults_injected = o.Crashpoint.bad_sector_reads;
      bad_sector_reads = o.Crashpoint.bad_sector_reads;
    }
  in
  (stats, failure)

(* ---------- engine mode ---------- *)

let engine_config spec n =
  let totalf = float_of_int (total_weight spec.sc_mix) in
  let frac kinds = float_of_int (kind_weight spec.sc_mix kinds) /. totalf in
  {
    Engine.default with
    Engine.clients = n;
    ops_per_client = max 1 (spec.sc_count / n);
    think =
      (match spec.sc_think with
      | Some t -> t
      | None -> Engine.default.Engine.think);
    seed = spec.sc_seed;
    read_fraction = frac [ KRead ];
    overwrite_fraction = frac [ KOverwrite; KAppend; KTruncate ];
    delete_fraction = frac [ KDelete ];
  }

let run_engine spec n =
  let inst = engine_instance spec in
  let config = engine_config spec n in
  let transient = List.filter is_transient spec.sc_faults in
  let faults = ref 0 in
  let result =
    if transient = [] then Engine.run ~config inst
    else begin
      let r, inj =
        with_faults ?member:spec.sc_fault_member ~seed:spec.sc_seed
          (Driver.io inst) transient (fun () -> Engine.run ~config inst)
      in
      faults := inj.inj_faults;
      r
    end
  in
  let failure =
    match run_invariants spec inst with
    | None -> None
    | Some message -> Some (make_failure spec ~message ~steps:[] ~original:0)
  in
  let stats =
    stats_of_instance ~ops_run:result.Engine.total_ops ~faults:!faults inst
  in
  (stats, result, failure)

(* ---------- run ---------- *)

let mode_of spec =
  if spec.sc_sweep then `Sweep
  else if List.mem Checkpoint_bad_sector spec.sc_faults then `Bad_sector
  else if spec.sc_read_back then `Read_fault
  else match spec.sc_clients with Some n -> `Engine n | None -> `Stream

let mode_name = function
  | `Sweep -> "sweep"
  | `Bad_sector -> "bad-sector"
  | `Read_fault -> "read-fault"
  | `Engine _ -> "engine"
  | `Stream -> "stream"

let run spec =
  validate spec;
  let mode = mode_of spec in
  let stats, sweep, engine, failure =
    match mode with
    | `Stream ->
        let stats, failure = run_stream spec in
        (stats, None, None, failure)
    | `Engine n ->
        let stats, result, failure = run_engine spec n in
        (stats, None, Some result, failure)
    | `Sweep ->
        let stats, outcome, failure = run_sweep spec in
        (stats, outcome, None, failure)
    | `Read_fault ->
        let stats, failure = run_read_fault spec in
        (stats, None, None, failure)
    | `Bad_sector ->
        let stats, failure = run_bad_sector spec in
        (stats, None, None, failure)
  in
  {
    label = Crashpoint.system_name spec.sc_system ^ "/" ^ mode_name mode;
    mode = mode_name mode;
    seed_used = spec.sc_seed;
    stats;
    sweep;
    engine;
    failure;
  }

(* ---------- reporting ---------- *)

let render r =
  let b = Buffer.create 256 in
  Printf.bprintf b "scenario %s seed=%d\n" r.label r.seed_used;
  Printf.bprintf b
    "  ops=%d faults=%d retries=%d backoff_us=%d read_errors=%d \
     bad_sector_reads=%d\n"
    r.stats.ops_run r.stats.faults_injected r.stats.retries r.stats.backoff_us
    r.stats.read_errors r.stats.bad_sector_reads;
  (match r.sweep with
  | Some o ->
      Printf.bprintf b "  sweep: writes=%d boundaries=%d faults=%d\n"
        o.Crashpoint.total_writes o.Crashpoint.boundaries_tested
        o.Crashpoint.faults
  | None -> ());
  (match r.engine with
  | Some e ->
      Printf.bprintf b "  engine: clients=%d ops=%d p50_us=%d p99_us=%d\n"
        e.Engine.clients e.Engine.total_ops e.Engine.p50_us e.Engine.p99_us
  | None -> ());
  (match r.failure with
  | None -> Buffer.add_string b "  result: OK\n"
  | Some f ->
      Printf.bprintf b "  result: FAILED: %s\n" f.message;
      Printf.bprintf b "  minimal counterexample (%d of %d ops):\n"
        f.shrunk_steps f.original_steps;
      List.iter (fun s -> Printf.bprintf b "    %s\n" s) f.steps;
      Printf.bprintf b "  replay: %s\n" f.replay);
  Buffer.contents b

let to_json r =
  let stats =
    Json.Obj
      [
        ("ops_run", Json.Int r.stats.ops_run);
        ("faults_injected", Json.Int r.stats.faults_injected);
        ("retries", Json.Int r.stats.retries);
        ("backoff_us", Json.Int r.stats.backoff_us);
        ("read_errors", Json.Int r.stats.read_errors);
        ("bad_sector_reads", Json.Int r.stats.bad_sector_reads);
      ]
  in
  let sweep =
    match r.sweep with
    | None -> Json.Null
    | Some o ->
        Json.Obj
          [
            ("total_writes", Json.Int o.Crashpoint.total_writes);
            ("boundaries_tested", Json.Int o.Crashpoint.boundaries_tested);
            ("faults", Json.Int o.Crashpoint.faults);
            ("violations", Json.Int (List.length o.Crashpoint.violations));
          ]
  in
  let engine =
    match r.engine with None -> Json.Null | Some e -> Engine.to_json e
  in
  let failure =
    match r.failure with
    | None -> Json.Null
    | Some f ->
        Json.Obj
          [
            ("message", Json.String f.message);
            ("original_steps", Json.Int f.original_steps);
            ("shrunk_steps", Json.Int f.shrunk_steps);
            ("steps", Json.List (List.map (fun s -> Json.String s) f.steps));
            ("replay", Json.String f.replay);
          ]
  in
  Json.Obj
    [
      ("schema", Json.String "lfs-scenario/1");
      ("label", Json.String r.label);
      ("mode", Json.String r.mode);
      ("seed", Json.Int r.seed_used);
      ("stats", stats);
      ("sweep", sweep);
      ("engine", engine);
      ("failure", failure);
    ]
