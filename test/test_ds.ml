(* Data-structure tests: indexed-heap decrease-key behaviour, the
   Sorted_jobs binary searches against a brute-force reference, and the
   flat string map against [Hashtbl]. *)

module Flat_str_map = Rebal_ds.Flat_str_map
module Indexed_heap = Rebal_ds.Indexed_heap
module Sorted_jobs = Rebal_ds.Sorted_jobs
module Rng = Rebal_workloads.Rng

let check = Alcotest.check
let check_int = check Alcotest.int

let test_indexed_heap_updates () =
  let rng = Rng.create 3 in
  for _ = 1 to 100 do
    let n = Rng.int_range rng 1 30 in
    let h = Indexed_heap.create n in
    let prio = Array.make n None in
    for _ = 1 to 300 do
      let key = Rng.int rng n in
      match Rng.int rng 3 with
      | 0 ->
        let p = Rng.int_range rng (-50) 50 in
        Indexed_heap.set h key p;
        prio.(key) <- Some p
      | 1 ->
        Indexed_heap.remove h key;
        prio.(key) <- None
      | _ -> begin
        (* Check the minimum against the model. *)
        let expected = ref None in
        for k = 0 to n - 1 do
          match (prio.(k), !expected) with
          | Some p, None -> expected := Some (k, p)
          | Some p, Some (_, bp) when p < bp -> expected := Some (k, p)
          | _ -> ()
        done;
        Alcotest.(check (option (pair int int))) "indexed min" !expected (Indexed_heap.min h)
      end
    done
  done

let test_indexed_heap_pop_order () =
  let h = Indexed_heap.create 5 in
  List.iteri (fun i p -> Indexed_heap.set h i p) [ 7; 3; 9; 3; 1 ];
  let order = ref [] in
  let rec drain () =
    match Indexed_heap.pop_min h with
    | Some (k, _) ->
      order := k :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  (* Priorities 1 < 3 = 3 < 7 < 9, ties by key: 4, 1, 3, 0, 2. *)
  check (Alcotest.list Alcotest.int) "deterministic tie-break" [ 4; 1; 3; 0; 2 ]
    (List.rev !order)

(* Model-based qcheck property: arbitrary set/remove/pop_min sequences
   against a naive association-list model. The online engine leans on
   this structure for every placement decision, so the whole observable
   state (min, length, membership, entries) is compared after every
   operation, not just the extraction order. *)
let prop_indexed_heap_model =
  let open QCheck2 in
  let ops_gen =
    Gen.(
      let* n = int_range 1 20 in
      let* ops =
        list_size (int_range 0 150)
          (oneof
             [
               map2 (fun k p -> `Set (k, p)) (int_range 0 (n - 1)) (int_range (-50) 50);
               map (fun k -> `Remove k) (int_range 0 (n - 1));
               return `Pop_min;
             ])
      in
      return (n, ops))
  in
  Test.make ~name:"indexed heap vs assoc-list model" ~count:300 ops_gen
    (fun (n, ops) ->
      let h = Indexed_heap.create n in
      let model = ref [] in
      let model_min () =
        List.fold_left
          (fun best (k, p) ->
            match best with
            | None -> Some (k, p)
            | Some (bk, bp) -> if p < bp || (p = bp && k < bk) then Some (k, p) else best)
          None !model
      in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | `Set (k, p) ->
              Indexed_heap.set h k p;
              model := (k, p) :: List.remove_assoc k !model;
              true
            | `Remove k ->
              Indexed_heap.remove h k;
              model := List.remove_assoc k !model;
              true
            | `Pop_min ->
              let got = Indexed_heap.pop_min h in
              let expected = model_min () in
              (match expected with
              | Some (k, _) -> model := List.remove_assoc k !model
              | None -> ());
              got = expected
          in
          step_ok
          && Indexed_heap.min h = model_min ()
          && Indexed_heap.length h = List.length !model
          && List.for_all (fun (k, p) -> Indexed_heap.priority h k = Some p) !model
          && List.sort compare (Indexed_heap.entries h) = List.sort compare !model)
        ops)

let test_sorted_jobs_structure () =
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let q = Rng.int_range rng 0 30 in
    let jobs = Array.init q (fun i -> (i, Rng.int_range rng 1 50)) in
    let v = Sorted_jobs.of_ids ~sizes:(Array.map snd jobs) (Array.init q Fun.id) in
    check_int "length" q (Sorted_jobs.length v);
    let total = Array.fold_left (fun acc (_, s) -> acc + s) 0 jobs in
    check_int "total" total (Sorted_jobs.total v);
    for i = 1 to q - 1 do
      Alcotest.(check bool) "descending" true (Sorted_jobs.size v (i - 1) >= Sorted_jobs.size v i)
    done;
    for l = 0 to q do
      let expected = ref 0 in
      for i = 0 to l - 1 do
        expected := !expected + Sorted_jobs.size v i
      done;
      check_int "prefix" !expected (Sorted_jobs.prefix v l);
      check_int "suffix" (total - !expected) (Sorted_jobs.suffix v l)
    done
  done

let test_sorted_jobs_large_count () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let q = Rng.int_range rng 0 25 in
    let jobs = Array.init q (fun i -> (i, Rng.int_range rng 1 40)) in
    let v = Sorted_jobs.of_ids ~sizes:(Array.map snd jobs) (Array.init q Fun.id) in
    for t = 0 to 90 do
      let expected =
        Array.fold_left (fun acc (_, s) -> if 2 * s > t then acc + 1 else acc) 0 jobs
      in
      check_int "large_count" expected (Sorted_jobs.large_count v ~threshold:t)
    done
  done

let test_sorted_jobs_min_removals () =
  let rng = Rng.create 6 in
  for _ = 1 to 200 do
    let q = Rng.int_range rng 0 20 in
    let jobs = Array.init q (fun i -> (i, Rng.int_range rng 1 30)) in
    let v = Sorted_jobs.of_ids ~sizes:(Array.map snd jobs) (Array.init q Fun.id) in
    let from_ = if q = 0 then 0 else Rng.int rng (q + 1) in
    let cap = Rng.int_range rng 0 200 in
    let r = Sorted_jobs.min_removals_to_cap v ~from_ ~cap in
    (* Brute-force reference: remaining after removing the r largest of
       the suffix must be <= cap, and r-1 removals must not suffice. *)
    let remaining r =
      let total = ref 0 in
      for i = from_ + r to q - 1 do
        total := !total + Sorted_jobs.size v i
      done;
      !total
    in
    Alcotest.(check bool) "feasible" true (remaining r <= cap);
    if r > 0 then Alcotest.(check bool) "minimal" true (remaining (r - 1) > cap)
  done

(* ----- Flat_str_map ----- *)

(* A small keyspace ("" included) over tables created tiny, so probe
   runs wrap past the end of the arrays and a removal shifts entries
   back across the wrap; every step compares the whole observable state
   with a [Hashtbl] model. *)
let prop_flat_str_map_model =
  let open QCheck2 in
  let keys = Array.append [| "" |] (Array.init 23 (Printf.sprintf "k%d")) in
  let key = Gen.map (Array.get keys) (Gen.int_range 0 (Array.length keys - 1)) in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Set (k, v)) key (int_range 0 1000));
          (5, map (fun k -> `Remove k) key);
          (1, return `Clear);
          (1, map (fun n -> `Reserve n) (int_range 0 40));
        ])
  in
  let show = function
    | `Set (k, v) -> Printf.sprintf "set %S %d" k v
    | `Remove k -> Printf.sprintf "remove %S" k
    | `Clear -> "clear"
    | `Reserve n -> Printf.sprintf "reserve %d" n
  in
  Test.make ~name:"flat string map vs Hashtbl model" ~count:500
    ~print:(fun (n, ops) ->
      Printf.sprintf "create %d; %s" n (String.concat "; " (List.map show ops)))
    Gen.(pair (int_range 0 3) (list_size (int_range 0 200) op_gen))
    (fun (n, ops) ->
      let t = Flat_str_map.create n and model = Hashtbl.create 8 in
      let agrees () =
        let bound = ref [] in
        Flat_str_map.iter (fun k v -> bound := (k, v) :: !bound) t;
        Flat_str_map.length t = Hashtbl.length model
        && List.sort compare !bound
           = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [])
        && Array.for_all
             (fun k ->
               let want = Option.value (Hashtbl.find_opt model k) ~default:(-1) in
               Flat_str_map.find t k = want && Flat_str_map.mem t k = (want >= 0))
             keys
      in
      List.for_all
        (fun op ->
          (match op with
          | `Set (k, v) ->
            Flat_str_map.set t k v;
            Hashtbl.replace model k v
          | `Remove k ->
            Flat_str_map.remove t k;
            Hashtbl.remove model k
          | `Clear ->
            Flat_str_map.clear t;
            Hashtbl.reset model
          | `Reserve n ->
            let cap = Flat_str_map.capacity t in
            Flat_str_map.reserve t n;
            if Flat_str_map.capacity t < max cap (2 * n) then
              Test.fail_reportf "reserve %d left capacity %d" n (Flat_str_map.capacity t));
          agrees () || Test.fail_reportf "diverged after %s" (show op))
        ops)

(* Keys chosen by home slot so one probe run covers the last two slots
   and the first two: removing its head shifts the three others back
   across the wrap, and each stays findable. *)
let test_flat_str_map_wrap () =
  let t = Flat_str_map.create 3 in
  let cap = Flat_str_map.capacity t in
  let homed h =
    List.filter
      (fun k -> Hashtbl.hash k land (cap - 1) = h)
      (List.init 1000 (Printf.sprintf "w%d"))
  in
  let a, b = match homed (cap - 2) with a :: b :: _ -> (a, b) | _ -> assert false in
  let c = List.hd (homed (cap - 1)) and d = List.hd (homed 0) in
  List.iteri (fun v k -> Flat_str_map.set t k v) [ a; b; c; d ];
  check_int "no growth" cap (Flat_str_map.capacity t);
  Flat_str_map.remove t a;
  check_int "head removed" (-1) (Flat_str_map.find t a);
  List.iter
    (fun (k, v) -> check_int ("shifted " ^ k) v (Flat_str_map.find t k))
    [ (b, 1); (c, 2); (d, 3) ];
  Flat_str_map.remove t c;
  List.iter (fun (k, v) -> check_int ("kept " ^ k) v (Flat_str_map.find t k)) [ (b, 1); (d, 3) ];
  check_int "two left" 2 (Flat_str_map.length t)

(* Once grown to its working set, a set/remove churn at constant
   population allocates nothing. *)
let test_flat_str_map_churn_allocation () =
  let live = 1000 in
  let pool = Array.init (2 * live) (Printf.sprintf "c%d") in
  let t = Flat_str_map.create 0 in
  let churn steps =
    for j = 0 to steps - 1 do
      Flat_str_map.remove t pool.(j mod (2 * live));
      Flat_str_map.set t pool.((j + live) mod (2 * live)) j
    done
  in
  Array.iteri (fun i k -> if i < live then Flat_str_map.set t k i) pool;
  churn (4 * live);
  let before = Gc.minor_words () in
  churn (20 * live);
  let words = Gc.minor_words () -. before in
  check_int "population" live (Flat_str_map.length t);
  Alcotest.(check (float 0.)) "minor words over the churn" 0. words

let () =
  Alcotest.run "rebal_ds"
    [
      ( "indexed_heap",
        [
          Alcotest.test_case "set/remove/min vs model" `Quick test_indexed_heap_updates;
          Alcotest.test_case "deterministic pop order" `Quick test_indexed_heap_pop_order;
          QCheck_alcotest.to_alcotest prop_indexed_heap_model;
        ] );
      ( "sorted_jobs",
        [
          Alcotest.test_case "prefix/suffix structure" `Quick test_sorted_jobs_structure;
          Alcotest.test_case "large_count" `Quick test_sorted_jobs_large_count;
          Alcotest.test_case "min_removals_to_cap" `Quick test_sorted_jobs_min_removals;
        ] );
      ( "flat_str_map",
        [
          QCheck_alcotest.to_alcotest prop_flat_str_map_model;
          Alcotest.test_case "runs wrap and shift back" `Quick test_flat_str_map_wrap;
          Alcotest.test_case "constant-population churn allocates nothing" `Quick
            test_flat_str_map_churn_allocation;
        ] );
    ]
