(* expect: transitive-disk-io *)
(* A functor shared by several layers.  Calls through its parameter are
   opaque ([fill] stays clean: each argument is analyzed on its own),
   but the body's own calls are tracked: [poke] reaches Disk. *)
module Make (F : sig
  val fetch : int -> bytes
end) =
struct
  let fill d = F.fetch d
  let poke d = Lfs_core.Rawpoke.nudge d
end
