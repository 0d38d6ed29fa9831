(* Heap census.  See the interface for the contract. *)

type class_row = {
  cr_size : int;
  cr_blocks : int;
  cr_slots : int;
  cr_allocated : int;
}

type t = {
  cn_collections : int;
  cn_phase : string;
  cn_classes : class_row list;
  cn_free_page_runs : int;
  cn_free_pages : int;
  cn_age : int array;
  cn_young : int;
  cn_old : int;
  cn_dirty_cards : int;
  cn_cards : int;
  cn_nursery_pages : int;
  cn_nursery_slots : int;
  cn_live_words : int;
  cn_committed_words : int;
}

let phase_name = function
  | Heap.Idle -> "idle"
  | Heap.Marking -> "marking"
  | Heap.Sweeping -> "sweeping"

let take (h : Heap.t) =
  let promote_after = Int.max 1 h.Heap.config.Heap.promote_after in
  let age = Array.make (promote_after + 1) 0 in
  let classes : (int, class_row ref) Hashtbl.t = Hashtbl.create 16 in
  let live_bytes = ref 0 in
  let young = ref 0 and old = ref 0 in
  List.iter
    (fun (b : Block.t) ->
      let row =
        match Hashtbl.find_opt classes b.Block.blk_obj_size with
        | Some r -> r
        | None ->
            let r =
              ref
                {
                  cr_size = b.Block.blk_obj_size;
                  cr_blocks = 0;
                  cr_slots = 0;
                  cr_allocated = 0;
                }
            in
            Hashtbl.add classes b.Block.blk_obj_size r;
            r
      in
      let allocated = ref 0 in
      for slot = 0 to b.Block.blk_count - 1 do
        if Block.is_allocated b slot then begin
          incr allocated;
          live_bytes := !live_bytes + b.Block.blk_obj_size;
          if Block.collectable b then begin
            let a =
              (* nursery residents are young regardless of the clipped
                 age byte; everywhere else age tells the generation *)
              if b.Block.blk_young then
                Int.min (Block.age b slot) (promote_after - 1)
              else Int.min (Block.age b slot) promote_after
            in
            age.(a) <- age.(a) + 1;
            if a >= promote_after then incr old else incr young
          end
        end
      done;
      row :=
        {
          !row with
          cr_blocks = !row.cr_blocks + 1;
          cr_slots = !row.cr_slots + b.Block.blk_count;
          cr_allocated = !row.cr_allocated + !allocated;
        })
    h.Heap.all_blocks;
  let classes =
    Hashtbl.fold (fun _ r acc -> !r :: acc) classes []
    |> List.sort (fun a b -> Int.compare a.cr_size b.cr_size)
  in
  let dirty = h.Heap.dirty in
  let dirty_cards = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr dirty_cards) dirty;
  {
    cn_collections = h.Heap.stats.Heap.collections;
    cn_phase = phase_name h.Heap.phase;
    cn_classes = classes;
    cn_free_page_runs = List.length h.Heap.free_pages;
    cn_free_pages =
      List.fold_left (fun acc (_, pages) -> acc + pages) 0 h.Heap.free_pages;
    cn_age = age;
    cn_young = !young;
    cn_old = !old;
    cn_dirty_cards = !dirty_cards;
    cn_cards = Bytes.length dirty;
    cn_nursery_pages =
      List.fold_left
        (fun acc (b : Block.t) -> acc + b.Block.blk_pages)
        0 h.Heap.young_blocks;
    cn_nursery_slots =
      List.fold_left
        (fun acc (b : Block.t) -> acc + b.Block.blk_bump)
        0 h.Heap.young_blocks;
    cn_live_words = (!live_bytes + 7) / 8;
    cn_committed_words = (Heap.footprint h + 7) / 8;
  }

let fragmentation c =
  if c.cn_committed_words = 0 then 1.0
  else Float.of_int c.cn_live_words /. Float.of_int c.cn_committed_words

let dirty_ratio c =
  if c.cn_cards = 0 then 0.0
  else Float.of_int c.cn_dirty_cards /. Float.of_int c.cn_cards

let pp ppf c =
  Format.fprintf ppf
    "census after collection %d: phase=%s live=%dw committed=%dw frag=%.3f@."
    c.cn_collections c.cn_phase c.cn_live_words c.cn_committed_words
    (fragmentation c);
  Format.fprintf ppf "  generations: young=%d old=%d ages=[%s]@." c.cn_young
    c.cn_old
    (String.concat ";" (Array.to_list (Array.map string_of_int c.cn_age)));
  Format.fprintf ppf "  cards: dirty=%d/%d (%.3f)  free-page pool: %d page(s) in %d run(s)@."
    c.cn_dirty_cards c.cn_cards (dirty_ratio c) c.cn_free_pages
    c.cn_free_page_runs;
  Format.fprintf ppf "  nursery: %d page(s), %d bump slot(s) used@."
    c.cn_nursery_pages c.cn_nursery_slots;
  List.iter
    (fun r ->
      Format.fprintf ppf "  class %6d: %3d block(s) %5d/%5d slot(s) live@."
        r.cr_size r.cr_blocks r.cr_allocated r.cr_slots)
    c.cn_classes
