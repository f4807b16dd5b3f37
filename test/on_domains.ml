(* Client threads placed over a cluster's session domains the way the
   serve daemon places its sessions: body [i] runs on a systhread of
   domain [i mod D], each domain running under its registry from
   [Cluster.domain_registries]; with no session domain, the bodies run
   on systhreads of the calling domain. *)

module Cluster = Rebal_online.Cluster
module Metrics = Rebal_obs.Metrics

(* Start [bodies]; the result waits for every one of them, then
   re-raises the first exception (in body order) one of them raised. *)
let start c bodies =
  let bodies = Array.of_list bodies in
  let n = Array.length bodies in
  let failures = Array.make n None in
  let spawn_threads indices =
    List.map
      (fun i -> Thread.create (fun () -> try bodies.(i) () with e -> failures.(i) <- Some e) ())
      indices
  in
  let registries = Cluster.domain_registries c in
  let d = Array.length registries in
  let join =
    if d = 0 then begin
      let threads = spawn_threads (List.init n Fun.id) in
      fun () -> List.iter Thread.join threads
    end
    else begin
      let domains =
        List.init (min d n) (fun k ->
            let mine = List.filter (fun i -> i mod d = k) (List.init n Fun.id) in
            Domain.spawn (fun () ->
                Metrics.Registry.with_registry registries.(k) (fun () ->
                    List.iter Thread.join (spawn_threads mine))))
      in
      fun () -> List.iter Domain.join domains
    end
  in
  fun () ->
    join ();
    Array.iter (Option.iter raise) failures

let run c bodies = start c bodies ()

(* [f] on a thread of [c]'s first session domain; its result. *)
let call c f =
  let result = ref None in
  run c [ (fun () -> result := Some (f ())) ];
  Option.get !result
