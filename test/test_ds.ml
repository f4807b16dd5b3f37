(* Data-structure tests: indexed-heap decrease-key behaviour, and the
   Sorted_jobs binary searches against a brute-force reference. *)

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
    ]
