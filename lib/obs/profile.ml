module Table = Lfs_util.Table

(* ---------------- operation spans ---------------- *)

type op =
  [ `Create
  | `Mkdir
  | `Delete
  | `Rename
  | `Link
  | `Read
  | `Write
  | `Truncate
  | `Stat
  | `Readdir
  | `Sync
  | `Fsync ]

(* The op-span names live here and only here: file systems call
   [with_op], so each span name has exactly one registration site (the
   lint's span-dup rule) no matter how many layers instrument their
   operations with it. *)
let op_name = function
  | `Create -> "op_create"
  | `Mkdir -> "op_mkdir"
  | `Delete -> "op_delete"
  | `Rename -> "op_rename"
  | `Link -> "op_link"
  | `Read -> "op_read"
  | `Write -> "op_write"
  | `Truncate -> "op_truncate"
  | `Stat -> "op_stat"
  | `Readdir -> "op_readdir"
  | `Sync -> "op_sync"
  | `Fsync -> "op_fsync"

let all_ops : op list =
  [
    `Create; `Mkdir; `Delete; `Rename; `Link; `Read; `Write; `Truncate;
    `Stat; `Readdir; `Sync; `Fsync;
  ]

let with_op bus op f =
  if Bus.enabled bus then Bus.with_span bus (op_name op) f else f ()

(* ---------------- span-tree aggregation ---------------- *)

(* One node per distinct span-name path from a top-level span.  The
   histogram records the inclusive elapsed time of each completion, so
   quantiles come for free from the metrics machinery. *)
type node = {
  name : string;
  mutable count : int;
  mutable incl_us : int;
  mutable excl_us : int;
  hist : Metrics.histogram;
  children : (string, node) Hashtbl.t;
}

let new_node name =
  {
    name;
    count = 0;
    incl_us = 0;
    excl_us = 0;
    hist = Metrics.standalone_histogram ();
    children = Hashtbl.create 8;
  }

(* The frame mirrors the bus's span stack; [child_us] accumulates the
   inclusive time of completed children so the parent's exclusive time
   is elapsed - child_us. *)
type frame = { node : node; mutable child_us : int }

type t = {
  bus : Bus.t;
  root : node;  (* synthetic; its children are the top-level spans *)
  mutable stack : frame list;  (* innermost first *)
  mutable sub : Bus.subscription option;
}

let child_of node name =
  match Hashtbl.find_opt node.children name with
  | Some c -> c
  | None ->
      let c = new_node name in
      Hashtbl.add node.children name c;
      c

let on_record t r =
  match r.Event.event with
  | Event.Span_begin { name; _ } ->
      let parent =
        match t.stack with [] -> t.root | f :: _ -> f.node
      in
      t.stack <- { node = child_of parent name; child_us = 0 } :: t.stack
  | Event.Span_end { name; elapsed_us; _ } -> (
      match t.stack with
      | [] -> ()  (* attached mid-span: this span's begin predates us *)
      | f :: rest ->
          if f.node.name <> name then ()
          else begin
            t.stack <- rest;
            f.node.count <- f.node.count + 1;
            f.node.incl_us <- f.node.incl_us + elapsed_us;
            f.node.excl_us <- f.node.excl_us + (elapsed_us - f.child_us);
            Metrics.observe f.node.hist elapsed_us;
            match rest with
            | parent :: _ -> parent.child_us <- parent.child_us + elapsed_us
            | [] -> ()
          end)
  | _ -> ()

let attach bus =
  let t = { bus; root = new_node "root"; stack = []; sub = None } in
  t.sub <- Some (Bus.subscribe bus (fun r -> on_record t r));
  t

let detach t =
  match t.sub with
  | None -> ()
  | Some sub ->
      Bus.unsubscribe t.bus sub;
      t.sub <- None

(* ---------------- attribution ---------------- *)

(* Exclusive times partition inclusive time, so assigning every node's
   exclusive time to one category makes the four columns sum exactly to
   the op's total.  Categories are sticky below cleaner and checkpoint
   spans: the cleaner's own disk I/O is cleaner interference from the
   operation's point of view, not ordinary disk service. *)

type category = Cache | Disk | Cleaner | Ckpt

let category_of_name = function
  | "io_read" | "io_write" | "io_write_async" | "io_drain" -> Some Disk
  | "cleaner_pass" -> Some Cleaner
  | "checkpoint" | "roll_forward" -> Some Ckpt
  | _ -> None

type attribution = {
  mutable cache_us : int;
  mutable disk_us : int;
  mutable cleaner_us : int;
  mutable checkpoint_us : int;
}

let rec attribute acc inherited node =
  let cat =
    match inherited with
    | Cleaner | Ckpt -> inherited
    | Cache | Disk -> (
        match category_of_name node.name with
        | Some c -> c
        | None -> inherited)
  in
  (match cat with
  | Cache -> acc.cache_us <- acc.cache_us + node.excl_us
  | Disk -> acc.disk_us <- acc.disk_us + node.excl_us
  | Cleaner -> acc.cleaner_us <- acc.cleaner_us + node.excl_us
  | Ckpt -> acc.checkpoint_us <- acc.checkpoint_us + node.excl_us);
  Hashtbl.iter (fun _ c -> attribute acc cat c) node.children

(* ---------------- reports ---------------- *)

type op_stat = {
  op : string;
  count : int;
  total_us : int;
  mean_us : float;
  p50_us : int;
  p95_us : int;
  p99_us : int;
  cache_us : int;
  disk_us : int;
  cleaner_us : int;
  checkpoint_us : int;
}

type tree = {
  t_name : string;
  t_count : int;
  t_incl_us : int;
  t_excl_us : int;
  t_children : tree list;
}

type report = { ops : op_stat list; spans : tree list }

let rec tree_of_node node =
  let children =
    Hashtbl.fold (fun _ c acc -> tree_of_node c :: acc) node.children []
    |> List.sort (fun a b -> compare b.t_incl_us a.t_incl_us)
  in
  {
    t_name = node.name;
    t_count = node.count;
    t_incl_us = node.incl_us;
    t_excl_us = node.excl_us;
    t_children = children;
  }

let op_stat_of_node ~pretty node =
  let hs = Metrics.snapshot_histogram node.hist in
  let q p = Option.value ~default:0 (Metrics.quantile hs p) in
  let acc = { cache_us = 0; disk_us = 0; cleaner_us = 0; checkpoint_us = 0 } in
  attribute acc Cache node;
  {
    op = pretty;
    count = node.count;
    total_us = node.incl_us;
    mean_us = Metrics.mean hs;
    p50_us = q 0.5;
    p95_us = q 0.95;
    p99_us = q 0.99;
    cache_us = acc.cache_us;
    disk_us = acc.disk_us;
    cleaner_us = acc.cleaner_us;
    checkpoint_us = acc.checkpoint_us;
  }

let report t =
  let ops =
    List.filter_map
      (fun op ->
        match Hashtbl.find_opt t.root.children (op_name op) with
        | Some node when node.count > 0 ->
            let pretty =
              let n = op_name op in
              String.sub n 3 (String.length n - 3)
            in
            Some (op_stat_of_node ~pretty node)
        | _ -> None)
      all_ops
  in
  let spans =
    Hashtbl.fold (fun _ c acc -> tree_of_node c :: acc) t.root.children []
    |> List.sort (fun a b -> compare b.t_incl_us a.t_incl_us)
  in
  { ops; spans }

(* ---------------- rendering ---------------- *)

let render_ops rep =
  let rows =
    List.map
      (fun s ->
        [
          s.op;
          string_of_int s.count;
          string_of_int s.total_us;
          Table.fmt_float ~decimals:1 s.mean_us;
          string_of_int s.p50_us;
          string_of_int s.p95_us;
          string_of_int s.p99_us;
          string_of_int s.cache_us;
          string_of_int s.disk_us;
          string_of_int s.cleaner_us;
          string_of_int s.checkpoint_us;
        ])
      rep.ops
  in
  Table.render
    ~headers:
      [
        "op"; "count"; "total_us"; "mean_us"; "p50_us"; "p95_us"; "p99_us";
        "cache_us"; "disk_us"; "cleaner_us"; "ckpt_us";
      ]
    rows

let render_tree rep =
  let buf = Buffer.create 256 in
  let rec go indent tr =
    Buffer.add_string buf
      (Printf.sprintf "%s%s  count=%d incl_us=%d excl_us=%d\n" indent
         tr.t_name tr.t_count tr.t_incl_us tr.t_excl_us);
    List.iter (go (indent ^ "  ")) tr.t_children
  in
  List.iter (go "") rep.spans;
  Buffer.contents buf

(* ---------------- JSON ---------------- *)

let op_fields s =
  [
    ("op", Json.String s.op);
    ("count", Json.Int s.count);
    ("total_us", Json.Int s.total_us);
    ("mean_us", Json.Float s.mean_us);
    ("p50_us", Json.Int s.p50_us);
    ("p95_us", Json.Int s.p95_us);
    ("p99_us", Json.Int s.p99_us);
    ("cache_us", Json.Int s.cache_us);
    ("disk_us", Json.Int s.disk_us);
    ("cleaner_us", Json.Int s.cleaner_us);
    ("checkpoint_us", Json.Int s.checkpoint_us);
  ]
