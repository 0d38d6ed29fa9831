(* Exploring the conservative collector substrate directly.

   Run with:  dune exec examples/gc_explorer.exe

   Uses the gcheap library's public API without the compiler: allocation,
   the height-2 page map, interior pointers, conservative (false-positive)
   retention, the extra byte for one-past-the-end pointers, and the
   "Extensions" mode where interior pointers are honoured only from the
   roots. *)

open Gcheap

let banner s = Printf.printf "\n--- %s ---\n" s

let () =
  let h = Heap.create () in

  banner "allocation and the page map";
  let a = Heap.alloc h 100 in
  let b = Heap.alloc h 100 in
  Printf.printf "allocated a=%#x b=%#x (same size class, same page run)\n" a b;
  Printf.printf "GC_base(a + 63)      = %#x (interior pointers map back)\n"
    (Option.get (Heap.base_of h (a + 63)));
  Printf.printf "GC_base(a + 100)     = %#x (one past the end: the extra byte)\n"
    (Option.get (Heap.base_of h (a + 100)));
  Printf.printf "GC_base(a - 1)       = %s (one before is NOT ours)\n"
    (match Heap.base_of h (a - 1) with
    | Some x when x = a -> "a ?!"
    | Some x -> Printf.sprintf "%#x (the previous object)" x
    | None -> "none");

  banner "reachability: roots, chains, interior pointers";
  let chain = Array.init 5 (fun _ -> Heap.alloc h 24) in
  for i = 0 to 3 do
    Mem.store_word h.Heap.mem chain.(i) chain.(i + 1)
  done;
  let garbage = Heap.alloc h 24 in
  let freed = Heap.collect ~extra_roots:[ [| chain.(0); b + 57 |] ] h in
  Printf.printf "collect with roots {chain head, interior of b}: freed %d\n"
    freed;
  Printf.printf "chain tail alive: %b; b alive via interior ptr: %b; garbage gone: %b\n"
    (Heap.valid_access h chain.(4) 24)
    (Heap.valid_access h b 100)
    (not (Heap.valid_access h garbage 24));

  banner "conservatism: an integer that looks like a pointer";
  let victim = Heap.alloc h 40 in
  let innocent = Heap.alloc h 40 in
  (* innocent holds a plain integer whose value happens to equal victim's
     address: the conservative scan must retain victim anyway *)
  Mem.store_word h.Heap.mem innocent victim;
  ignore (Heap.collect ~extra_roots:[ [| innocent |] ] h);
  Printf.printf
    "victim retained because an int in a live object looks like its address: %b\n"
    (Heap.valid_access h victim 40);

  banner "the checking primitives (debugging mode runtime)";
  let obj = Heap.alloc h 64 in
  Printf.printf "GC_same_obj(obj+8, obj) = %#x (ok)\n" (Heap.same_obj h (obj + 8) obj);
  (try ignore (Heap.same_obj h (obj + 4096) obj)
   with Heap.Check_failure m -> Printf.printf "GC_same_obj(obj+4096, obj): %s\n" m);
  let slot = Heap.alloc h 8 in
  Mem.store_word h.Heap.mem slot obj;
  let old = Heap.post_incr h slot 16 in
  let now = Mem.load_word h.Heap.mem slot in
  Printf.printf "GC_post_incr(&slot, 16) returned %#x, slot now %#x\n" old now;

  banner "the Extensions mode: interior pointers from roots only";
  let config = { Heap.default_config with Heap.all_interior = false } in
  let h2 = Heap.create ~config () in
  let target = Heap.alloc h2 64 in
  let holder = Heap.alloc h2 16 in
  Mem.store_word h2.Heap.mem holder (target + 8);
  ignore (Heap.collect ~extra_roots:[ [| holder |] ] h2);
  Printf.printf
    "heap-resident interior pointer no longer keeps its target: alive=%b\n"
    (Heap.valid_access h2 target 64);
  Printf.printf
    "(the paper: this mode requires clients to store only base pointers\n\
    \ in the heap, and \"interacts suboptimally with C++ multiple\n\
    \ inheritance\")\n";

  banner "statistics";
  Format.printf "%a@." Heap.pp_stats h.Heap.stats
