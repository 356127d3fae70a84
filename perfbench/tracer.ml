(* The traced run's view of the layers the benchmark cannot call
   directly: a bus subscriber that gives every span its host self time
   and self allocation, plus Lfs_obs.Profile for the simulated-time
   attribution of each operation.

   Self time is a span's host interval minus the intervals of the spans
   it caused (its children on the bus's span stack).  The subscriber's
   own bookkeeping runs inside those intervals, so host figures here
   carry the tracing overhead; the untraced run gives the end-to-end
   numbers. *)

module Bus = Lfs_obs.Bus
module Event = Lfs_obs.Event
module Profile = Lfs_obs.Profile

type frame = {
  name : string;
  t0 : float;
  w0 : float;
  mutable child_ns : float;
  mutable child_words : float;
}

type agg = {
  mutable count : int;
  mutable self_ns : float;
  mutable self_words : float;
  mutable sim_us : int;  (** inclusive simulated time *)
}

type t = {
  bus : Bus.t;
  mutable stack : frame list;
  table : (string, agg) Hashtbl.t;
  mutable active : bool;
  mutable profile : Profile.t option;
  mutable reports : Profile.report list;
}

let zero () = { count = 0; self_ns = 0.0; self_words = 0.0; sim_us = 0 }

let agg t name =
  match Hashtbl.find_opt t.table name with
  | Some a -> a
  | None ->
      let a = zero () in
      Hashtbl.add t.table name a;
      a

let on_record t (r : Event.record) =
  match r.Event.event with
  | Event.Span_begin { name; _ } ->
      let w0 = Host.alloc_words () in
      let t0 = Host.now_ns () in
      t.stack <- { name; t0; w0; child_ns = 0.0; child_words = 0.0 } :: t.stack
  | Event.Span_end { name; elapsed_us; _ } -> (
      let t1 = Host.now_ns () in
      let w1 = Host.alloc_words () in
      match t.stack with
      | f :: rest when f.name = name ->
          let incl_ns = t1 -. f.t0 in
          let incl_words = w1 -. f.w0 -. Host.bracket_overhead in
          (match rest with
          | p :: _ ->
              p.child_ns <- p.child_ns +. incl_ns;
              p.child_words <- p.child_words +. incl_words
          | [] -> ());
          t.stack <- rest;
          if t.active then begin
            let a = agg t name in
            a.count <- a.count + 1;
            a.self_ns <- a.self_ns +. (incl_ns -. f.child_ns);
            a.self_words <- a.self_words +. (incl_words -. f.child_words);
            a.sim_us <- a.sim_us + elapsed_us
          end
      | _ -> (* the span began before we subscribed *) ())
  | _ -> ()

let attach bus =
  let t =
    {
      bus;
      stack = [];
      table = Hashtbl.create 32;
      active = false;
      profile = None;
      reports = [];
    }
  in
  ignore (Bus.subscribe bus (on_record t) : Bus.subscription);
  t

(* Spans are aggregated, and operations profiled, only between [start]
   and [stop]: the measured phases and the recovery mount. *)
let start ?(profile = true) t =
  t.active <- true;
  if profile then t.profile <- Some (Profile.attach t.bus)

let stop t =
  t.active <- false;
  match t.profile with
  | None -> ()
  | Some p ->
      t.reports <- Profile.report p :: t.reports;
      Profile.detach p;
      t.profile <- None

let span t name =
  Option.value ~default:(zero ()) (Hashtbl.find_opt t.table name)

(* Per-operation attribution summed over every profiled phase:
   (count, cache_us, disk_us, cleaner_us, checkpoint_us). *)
let op_attribution t op =
  List.fold_left
    (fun (n, ca, di, cl, ck) (r : Profile.report) ->
      match List.find_opt (fun s -> s.Profile.op = op) r.Profile.ops with
      | None -> (n, ca, di, cl, ck)
      | Some s ->
          ( n + s.Profile.count,
            ca + s.Profile.cache_us,
            di + s.Profile.disk_us,
            cl + s.Profile.cleaner_us,
            ck + s.Profile.checkpoint_us ))
    (0, 0, 0, 0, 0) t.reports
