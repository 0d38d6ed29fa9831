(* Metrics registry.  See the interface for the contract.

   Enabled instruments are records of atomics; the disabled registry
   hands out physically-shared dummy instruments, so the hot-path update
   functions can test a single [enabled] flag embedded in the instrument
   itself and return without allocating. *)

(* One atomic per counter: the VM adds its counters once per run and
   each service request gets its own registry, so no counter is hot
   across domains. *)
type counter = { c_enabled : bool; c_value : int Atomic.t }

type gauge = { g_enabled : bool; g_last : int Atomic.t; g_max : int Atomic.t }

let nbuckets = 63
(* bucket 0: value 0; bucket i: 2^(i-1) <= v < 2^i *)

type histogram = {
  h_enabled : bool;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_max : int Atomic.t;
  h_buckets : int Atomic.t array;
}

type instrument = I_counter of counter | I_gauge of gauge | I_hist of histogram

type core = {
  mutex : Mutex.t;
  table : (string, instrument) Hashtbl.t;
}

type t = { core : core option; prefix : string }

let create () =
  { core = Some { mutex = Mutex.create (); table = Hashtbl.create 64 };
    prefix = "" }

let disabled = { core = None; prefix = "" }

let is_enabled t = t.core <> None

let scope t name =
  match t.core with
  | None -> disabled
  | Some _ -> { t with prefix = t.prefix ^ name ^ "/" }

let null_counter = { c_enabled = false; c_value = Atomic.make 0 }

let null_gauge =
  { g_enabled = false; g_last = Atomic.make 0; g_max = Atomic.make 0 }

let null_hist =
  {
    h_enabled = false;
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0;
    h_max = Atomic.make 0;
    h_buckets = [| Atomic.make 0 |];
  }

let register t name make get =
  match t.core with
  | None -> None
  | Some core ->
      let name = t.prefix ^ name in
      Mutex.lock core.mutex;
      let r =
        match Hashtbl.find_opt core.table name with
        | Some i -> get i
        | None ->
            let i = make () in
            Hashtbl.add core.table name i;
            get i
      in
      Mutex.unlock core.mutex;
      r

let counter t name =
  match
    register t name
      (fun () ->
        I_counter { c_enabled = true; c_value = Atomic.make 0 })
      (function I_counter c -> Some c | _ -> None)
  with
  | Some c -> c
  | None -> null_counter

let incr c = if c.c_enabled then ignore (Atomic.fetch_and_add c.c_value 1)

let add c n = if c.c_enabled then ignore (Atomic.fetch_and_add c.c_value n)

let gauge t name =
  match
    register t name
      (fun () ->
        I_gauge
          { g_enabled = true; g_last = Atomic.make 0; g_max = Atomic.make 0 })
      (function I_gauge g -> Some g | _ -> None)
  with
  | Some g -> g
  | None -> null_gauge

let rec raise_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then raise_max a v

let set g v =
  if g.g_enabled then begin
    Atomic.set g.g_last v;
    raise_max g.g_max v
  end

let histogram t name =
  match
    register t name
      (fun () ->
        I_hist
          {
            h_enabled = true;
            h_count = Atomic.make 0;
            h_sum = Atomic.make 0;
            h_max = Atomic.make 0;
            h_buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
          })
      (function I_hist h -> Some h | _ -> None)
  with
  | Some h -> h
  | None -> null_hist

let bucket_of v =
  if v <= 0 then 0
  else
    (* index of highest set bit, plus one *)
    let rec go v i = if v = 0 then i else go (v lsr 1) (i + 1) in
    min (nbuckets - 1) (go v 0)

let observe h v =
  if h.h_enabled then begin
    ignore (Atomic.fetch_and_add h.h_count 1);
    ignore (Atomic.fetch_and_add h.h_sum (max 0 v));
    raise_max h.h_max v;
    ignore (Atomic.fetch_and_add h.h_buckets.(bucket_of v) 1)
  end

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of { last : int; max : int }
  | Histogram of { count : int; sum : int; max : int; buckets : int array }

type snapshot = (string * value) list

let snapshot t =
  match t.core with
  | None -> []
  | Some core ->
      Mutex.lock core.mutex;
      let entries =
        Hashtbl.fold
          (fun name i acc ->
            let v =
              match i with
              | I_counter c -> Counter (Atomic.get c.c_value)
              | I_gauge g ->
                  Gauge { last = Atomic.get g.g_last; max = Atomic.get g.g_max }
              | I_hist h ->
                  Histogram
                    {
                      count = Atomic.get h.h_count;
                      sum = Atomic.get h.h_sum;
                      max = Atomic.get h.h_max;
                      buckets = Array.map Atomic.get h.h_buckets;
                    }
            in
            (name, v) :: acc)
          core.table []
      in
      Mutex.unlock core.mutex;
      List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let diff later earlier =
  List.map
    (fun (name, v) ->
      match (v, List.assoc_opt name earlier) with
      | Counter l, Some (Counter e) -> (name, Counter (l - e))
      | Gauge _, Some (Gauge _) -> (name, v)
      | Histogram l, Some (Histogram e) ->
          let buckets =
            Array.init
              (max (Array.length l.buckets) (Array.length e.buckets))
              (fun i ->
                let at (a : int array) = if i < Array.length a then a.(i) else 0 in
                at l.buckets - at e.buckets)
          in
          ( name,
            Histogram
              {
                count = l.count - e.count;
                sum = l.sum - e.sum;
                max = l.max;
                buckets;
              } )
      | _, _ -> (name, v))
    later

let merge a b =
  let names =
    List.sort_uniq String.compare (List.map fst a @ List.map fst b)
  in
  List.filter_map
    (fun name ->
      match (List.assoc_opt name a, List.assoc_opt name b) with
      | Some v, None | None, Some v -> Some (name, v)
      | None, None -> None
      | Some va, Some vb ->
          let v =
            match (va, vb) with
            | Counter x, Counter y -> Counter (x + y)
            | Gauge _, Gauge g ->
                (* later window wins, as in [diff] *)
                Gauge g
            | Histogram x, Histogram y ->
                let buckets =
                  Array.init
                    (max (Array.length x.buckets) (Array.length y.buckets))
                    (fun i ->
                      let at (a : int array) =
                        if i < Array.length a then a.(i) else 0
                      in
                      at x.buckets + at y.buckets)
                in
                Histogram
                  {
                    count = x.count + y.count;
                    sum = x.sum + y.sum;
                    max = max x.max y.max;
                    buckets;
                  }
            | _, _ -> vb
          in
          Some (name, v))
    names

let find snap name = List.assoc_opt name snap

let absorb t snap =
  match t.core with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (name, v) ->
          (* [name] is already fully qualified; absorb into the root *)
          let root = { t with prefix = "" } in
          match v with
          | Counter n -> add (counter root name) n
          | Gauge { last; max } ->
              let g = gauge root name in
              set g max;
              set g last
          | Histogram { count; sum; max; buckets } ->
              let h = histogram root name in
              if h.h_enabled then begin
                ignore (Atomic.fetch_and_add h.h_count count);
                ignore (Atomic.fetch_and_add h.h_sum sum);
                raise_max h.h_max max;
                let n = min (Array.length buckets) (Array.length h.h_buckets) in
                for i = 0 to n - 1 do
                  ignore (Atomic.fetch_and_add h.h_buckets.(i) buckets.(i))
                done
              end)
        snap

let percentile buckets p =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then 0
  else begin
    (* nearest-rank: the ceil(p * n)-th order statistic.  The product
       [p *. n] can land a hair above the exact rank in binary floating
       point (0.07 *. 100. = 7.0000000000000006), so back off by an
       epsilon before taking the ceiling; out-of-range and NaN [p]
       clamp to the extreme order statistics. *)
    let p = if Float.is_nan p then 0. else Float.min 1. (Float.max 0. p) in
    let target =
      Float.to_int (Float.ceil ((Float.of_int total *. p) -. 1e-9))
    in
    let target = max 1 (min total target) in
    let seen = ref 0 and result = ref 0 in
    (try
       Array.iteri
         (fun i c ->
           seen := !seen + c;
           if !seen >= target then begin
             (* upper edge of bucket i: 0 for bucket 0, else 2^i - 1 *)
             result := (if i = 0 then 0 else (1 lsl i) - 1);
             raise Exit
           end)
         buckets
     with Exit -> ());
    !result
  end

let value_to_json = function
  | Counter n -> Json.Int n
  | Gauge { last; max } ->
      Json.Obj [ ("last", Json.Int last); ("max", Json.Int max) ]
  | Histogram { count; sum; max; buckets } ->
      let mean = if count > 0 then Float.of_int sum /. Float.of_int count else 0. in
      Json.Obj
        [
          ("count", Json.Int count);
          ("sum", Json.Int sum);
          ("max", Json.Int max);
          ("mean", Json.Float mean);
          ("p50", Json.Int (percentile buckets 0.50));
          ("p90", Json.Int (percentile buckets 0.90));
          ("p99", Json.Int (percentile buckets 0.99));
        ]

let to_json snap =
  Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) snap)

let pp ppf snap =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf ppf "%-40s %d@." name n
      | Gauge { last; max } ->
          Format.fprintf ppf "%-40s last=%d max=%d@." name last max
      | Histogram { count; sum; max; buckets } ->
          Format.fprintf ppf "%-40s n=%d sum=%d max=%d p50=%d p90=%d p99=%d@."
            name count sum max (percentile buckets 0.50)
            (percentile buckets 0.90) (percentile buckets 0.99))
    snap
