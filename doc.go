// Package repro is a from-scratch Go reproduction of "Database
// Architecture Evolution: Mammals Flourished long before Dinosaurs
// became Extinct" (Boncz, Manegold, Kersten; VLDB 2009) — the MonetDB
// architecture retrospective — grown into an embeddable columnar
// engine. See README.md for an overview and the API guide.
//
// # Public API
//
// Applications import repro/engine and nothing else: Open a database
// (in-memory or persisted), open Conn sessions over shared snapshots,
// Prepare statements whose ? placeholders compile into typed bind
// slots of a MAL plan compiled exactly once, and Query streaming Rows
// cursors with context cancellation checked at morsel boundaries. The
// engine lowers scan/filter/project SELECTs, aggregates (including
// over arithmetic expressions), multi-key GROUP BY, ORDER BY, and
// N-table INT equi-join trees — greedily ordered at execution, see
// the join-ordering chapter — onto the morsel-parallel vectorized
// pipeline and falls back to the MAL interpreter for everything else.
// internal/sqlfe.DB is the internal layer underneath; it is not a
// supported entry point.
//
// # Execution layer
//
// The vectorized engine (internal/vector) executes X100-style
// pull-based pipelines over columnar batches. Three layers make it
// cache-conscious and multi-core:
//
//   - Every INT equi-join path — batalg.Join's hash join, each cluster
//     of the radix partitioned join, vector.JoinBuild, and the MAL
//     `join` op behind compiled SQL — builds into ONE open-addressing
//     table, radix.Table: Fibonacci hashing on the high hash bits,
//     power-of-two 16-byte key+head slots, duplicate chains in one flat
//     []int32, no Go map, no per-key allocations, and one size formula
//     (radix.TableBytes) that the cost model prices and a governed
//     build charges. The table never partitions itself. bat.NilInt keys
//     never match — SQL NULL semantics enforced once, inherited by
//     every front-end.
//
//   - Two decisions partition a join, and nothing else does. In memory,
//     whether a MAL join radix-clusters BOTH sides with the multi-pass
//     Radix-Cluster (Figure 2, paper §4.2) or stays flat is decided by
//     the §4.4 cost model (radix.ShouldCluster on a calibrated
//     hierarchy with an LLC level), not a fixed threshold; the band
//     rows of experiment E3 sweep the A/B the calibration reproduces.
//     Out of core, a vectorized join build that its memory budget
//     denies is re-planned, where the query may spill, to a grace-hash
//     join over partitions spilled to disk.
//
//   - Pipelines parallelize morsel-driven: vector.Exchange splits a
//     Source into morsels handed out by an atomic cursor, runs one
//     pipeline fragment per worker (filters, projections, probes
//     against a shared read-only vector.JoinBuild, partial aggregates),
//     and re-aggregates the partials. The morsel size is derived from
//     the rows the scan reads after zone pruning and the workers:
//     rows/(4·workers) rounded up to whole 1024-row zones, clamped to
//     [4096, 65536]. So every worker gets about four morsels, a table
//     of at most 4096 rows stays one morsel on one worker, and 64K
//     rows bound cancellation: a context on the Exchange cancels at
//     morsel boundaries. Experiment E15 measures the scaling. An
//     Exchange never starts more workers than there are morsels to
//     claim, and when that leaves exactly one (one morsel after data
//     skipping, or one worker) the plan does not start it at all:
//     Exchange.Inline, the same rule Open sizes itself by, hands back
//     the one fragment over its MorselScan, which physical's
//     pipeline.run returns to run on the caller's goroutine — no
//     goroutines, no channels, no batch copies, the Exchange's Ctx and
//     RowIDs on the scan (a canceled cursor ends it with the context's
//     error). Its batches, like a serial stream's, are valid until the
//     next Next; every consumer copies or finishes a batch before it
//     pulls the next. \plan marks such a scan ", inline".
//
//   - Scans skip what zone maps rule out. Every INT/FLOAT column has a
//     sqlfe.ZoneMap — per 1024-row zone the min and max over the
//     non-nil values plus has-nil / all-nil — built in one pass where
//     the column is built (sqlfe.Load, every vacuum), immutable, owned
//     by its Table, shared by snapshots by reference, never persisted.
//     physical.bindLeaf, which every single-table scan and every join
//     input passes through and where ? arguments are known, tests each
//     bound conjunct against the zones of its column (=, the four
//     inequalities, <> against a constant zone, IS NULL against
//     nil-free and IS NOT NULL against all-nil zones; the nil sentinels
//     never enter min/max and never prune as constants), intersects
//     the survivors, coalesces them into [lo,hi) row ranges and narrows
//     the vector.Source to them (Source.Restrict). The MorselCursor
//     cuts morsels inside the ranges and hands out nothing between
//     them; row ids stay global; positions past the zone-mapped prefix
//     — rows appended since the column was built — always survive
//     until a checkpoint + reopen or a vacuum rebuilds the column and
//     its maps. The Filter still evaluates every predicate, so the
//     ranges are a hint that can only remove work: the cursor is the
//     one consumer that reads them (the serial vector.Scan is a
//     MorselScan that is its cursor's only claimant), there is no
//     option to turn them off, and an empty survivor set is the same
//     zero-row source an IS NULL contradiction binds. A snapshot's
//     tombstones, by contrast, are a filter (Source.WithDeleted): the
//     MorselScan leaves them out of each batch's selection vector, and
//     every plan reads its leaves through that scan. This is the
//     paper's run-time choice of algorithm from column properties (a
//     sorted tail is binary-searched by batalg.Select) carried to the
//     vector path, and the min/max baseline of provenance-based data
//     skipping (PAPERS.md).
//
//   - Sorted columns are binary-searched, the exact end of data
//     skipping. bindLeaf reads each INT column's Sorted property off
//     the BAT header the snapshot copied (so it holds for exactly the
//     snapshot's positions, appended rows included, while appends
//     extend the order), and turns an =, <, <=, > or >= against a
//     non-nil constant on such a column into two sort.Search bounds:
//     a row range [lo,hi) holding exactly the positions that satisfy
//     it, past the nil prefix (bat.NilInt sorts first). The conjuncts'
//     ranges intersect and cut the zone ranges; the predicate leaves
//     the Filter and is not zone-pruned. Tombstones still drop through
//     the scan's selection. The serving point lookup reads one row,
//     and \plan names the range: "rows [lo,hi) by binary search on
//     acct.id". The zone count stays the zones the range touches.
//
//   - Selections adapt to their data (micro-adaptivity, Răducanu,
//     Boncz and Zukowski, SIGMOD 2013). Every selection primitive has
//     two flavours of one loop, generic over INT and FLOAT where the
//     comparison is the same: a branching one that writes an index
//     only when the predicate holds, and X100's branch-free one that
//     writes every candidate's index and advances by the predicate's
//     truth value, 0 or 1. The branching loop wins while the branch is
//     predictable, the branch-free one costs the same at any pass rate.
//     vector.Filter picks per predicate per vector: the branching
//     flavour when that predicate kept under 4 % or over 96 % of the
//     previous vector's rows, else the branch-free one. The state is
//     one word in each worker's own Filter, and the cut-off is a
//     constant (the measured crossover, in vector/ops.go), not an
//     option. Both flavours write by index, so the Filter sizes the
//     output for every candidate before the call.
//
//   - A join carries only live columns (late materialization). Plan.stage
//     hands the join the set of its output columns the nodes above read:
//     the project's outputs, the sort's key and ties, the grouping's
//     keys, accumulators and Pre expressions. A build keeps those of its
//     leaf, plus the keys later steps probe on, as its payload; every
//     probe (vector.HashJoinOp.Keep) copies only the probe columns still
//     live after it; a grace step partitions only what its join reads,
//     and a grace GROUP BY only its keys and accumulator arguments. So
//     one compact layout holds on every path, and a dimension column
//     nothing reads is never gathered.
//
//   - Grouping is ONE table too: radix.GroupTable maps K-wide int64
//     key tuples to dense first-seen group ids, for every K. A slot is
//     (tuple hash, gid+1) in 16 bytes whatever K is — same Fibonacci
//     slotting, flat power-of-two array, load <= ½, no per-key
//     allocation as the join table — and the keys live column-major in
//     K dense arrays indexed by gid, which is the shape grouped output
//     is emitted in (vector.Agg hands Key(c) off as its key columns
//     without a copy). One layout is enough because the hash recipe is
//     a chain of bijections: radix.Hash multiplies by an odd constant,
//     and each radix.HashFold step (xor the next key word in, multiply
//     again) is a bijection of the running hash for a fixed word. Two
//     tuples with equal 64-bit hashes that agree on words 1..K-1
//     therefore agree on word 0. At K=1 the stored hash IS the key: a
//     found probe is hash, one slot load, one compare, one store, and
//     never touches the key arrays; wider keys read key columns
//     1..K-1 only on a full hash match. NULL (bat.NilInt) is a legal
//     key word in any position — GROUP BY is "is not distinct from".
//     The table backs batalg.Group/SubGroup/Unique (SubGroup is K=2
//     over (previous gid, value)), the MAL group ops, vector.Agg at
//     every key width, and — through the same exported hash recipe —
//     the grace-hash partitioner's row routing. Every parallel GROUP BY
//     runs one plan: per-worker partial tables merged by key
//     (vector.MergeGroups), re-planned to grace hash when a table
//     outgrows the query's memory grant.
//
// # Physical plans
//
// A SELECT is bound ONCE, by sqlfe.Snapshot.Bind: tables in FROM/JOIN
// order, WHERE conjuncts as (table, column, type, op, typed literal or
// placeholder), JOIN edges oriented (prior column, new column), the
// select list * expanded and labelled with type-annotated expression
// trees, the shape (plain / global aggregate / grouped) with its
// legality rules, group keys, ORDER BY resolved to an output item or an
// unprojected column, placeholder types. Every error a SELECT can fail
// to compile with is a binder error. Both back-ends translate that one
// sqlfe.Bound and cannot fail on user input: Bound.CompileMAL always
// generates a program, and internal/physical's planner
// (physical.LowerBound) emits a tree of composable operators — Scan,
// Filter, Project, HashJoin, GroupAgg, Sort — each instantiated on the
// morsel-parallel vector engine, or a typed fallback decision whose
// machine-readable reason \plan surfaces (no statement runs on MAL
// silently). A fallback only ROUTES: it says what the vector engine
// does not do, never that the statement is wrong. There are five
// reasons, all structural, per operator, none data-dependent:
// text-column (a TEXT column anywhere in the pipeline),
// expression-in-select (plain, non-aggregated arithmetic items),
// group-key-not-int, order-key-not-sortable (a TEXT sort key),
// join-key-not-int (any edge). The route is therefore fixed when a
// statement is prepared, and the engine generates a MAL program only
// for a statement that runs on MAL.
//
// Every lowered plan has one skeleton, Project ← Sort? ← GroupAgg? ←
// pipeline, and one walk (Plan.Execute) instantiates it bottom-up. The
// pipeline is a Scan, a Filter over a Scan, or a JoinTreeNode of
// N-table INT equi-joins; IS [NOT] NULL filters run as nil-sentinel
// primitives. A GROUP BY of any number of INT keys (composite hash)
// is a GroupAgg; a global aggregate is a GroupAgg with no keys (the
// zero-key aggregate emits its identity row over no input); aggregates
// over arithmetic expressions get a nil-propagating pre-projection
// inside it. An ORDER BY is a Sort: per-worker sorted runs + k-way
// merge on one normalized-key kernel, under a LIMIT every run a
// bounded top-N selection behind a shared cutoff, spilling runs past
// the query's grant. Over a table its ties are row ids; over a join,
// every output column; over a GroupAgg the sort key is a select item
// and its ties are the group keys (a projected key ties through its
// item, an unprojected one is emitted after the items for the Project
// to drop). An ORDER BY over a global aggregate is left unresolved by
// the binder and lowers to no Sort. The Project at the root picks the
// select items.
//
// # Join ordering
//
// A FROM clause with N tables lowers into a left-deep tree of hash
// joins, ordered at execution time from facts the query measures
// itself, in the X100 spirit of deciding from the data in front of
// you; the engine keeps no statistics. The stream is the leaf whose
// filters pass the most rows in a strided sample of its scan (inside
// the surviving zones, tombstones skipped), so the fact table is never
// hashed. The join graph must be a tree (it is by construction — every
// ON clause references one new table). Every other leaf builds a
// serial join table, charged to the memory ledger, children first: the
// tree rooted at the stream, leaves before their parents, siblings in
// FROM order. Each build publishes a key filter on the leaf owning its
// probe key — an exact bitmap when its keys span at most 64 values per
// key, else their [min, max] — which that leaf's Filter applies after
// its own predicates. So a dimension is pruned by the dimensions
// hanging off it before it is hashed, and the stream reaches its first
// probe already semi-join-reduced by every build. Only then are the
// probes ordered: each after the step that joins its probe leaf, and
// of the steps free to go, the one with the smallest multiplier first,
// the rows one probe row past its filter yields: build rows ÷ distinct
// keys behind a bitmap, build rows ÷ (max − min + 1) behind a range.
// A build that carries no column (nothing above the join reads its
// leaf, and no probing step hangs off it) measures its filter before
// it is hashed. When that filter is a bitmap over unique non-nil keys,
// it passes each stream row with a match exactly once: the step is a
// semi-join the filter has already computed — the BAT algebra's
// semijoin as a selection on the probe side. Such a semi step builds
// no hash table, adds no probe, and keeps no column alive; \plan
// marks it "[semi: answered by its bitmap filter]". A build over
// unique keys that must be probed probes without walking chains.
// An over-budget build degrades its step, its descendants' and every
// later build's to grace hash, run after the in-memory probes; the
// filters of the builds that fit still prune both sides before they
// are partitioned. The stream probes the in-memory tables
// morsel-parallel in one pipeline pass. ORDER BY over a join emits a
// canonical order on both engines — sort key first, every output
// column left to right as tiebreaks, DESC a full reversal — so vector
// and MAL results stay bit-identical even where SQL leaves tie order
// unspecified.
// \plan renders the pipeline and, from one instrumented execution of a
// statement without placeholders, what data skipping left of each scan
// (decided at bind) and for joins the observed order:
//
//	\plan SELECT x FROM t WHERE y > 1 ORDER BY x DESC LIMIT 3
//	vectorized pipeline (physical plan, morsel-parallel exchange):
//	    scan t -> filter[col1 > lit] -> top-n[col0 desc limit 3] -> exchange -> merge-runs -> project
//	scan t: 3/10 zones, 2832/10000 rows
//	sort t: 2832 rows in, 1038 past cutoff, 2 compactions, 3 kept, 0 spilled runs
//
// (without the LIMIT the stage reads sort-runs[col0 desc] and the sort
// line "2832 rows in, 2832 kept, 0 spilled runs")
//
//	\plan SELECT t.x, u.w FROM t JOIN u ON t.k = u.k
//	vectorized pipeline (physical plan, morsel-parallel exchange):
//	    build: scan u -> join-table[key col0]
//	    probe: scan t -> hash-join[key col1, shared table] -> project -> exchange
//	scan t: 10/10 zones, 10000/10000 rows
//	scan u: 1/1 zones, 100/100 rows
//	join order (greedy, from the measured builds):
//	    stream: scan t
//	    join 1: build u (100 rows), est 10000 rows -> actual 10000 rows of 2 columns, bitmap filter on t: 10000 -> 10000 rows
//
//	\plan SELECT a, b, sum(v) FROM t GROUP BY a, b
//	vectorized pipeline (physical plan, morsel-parallel exchange):
//	    scan t -> group-by[col0,col1] partial-agg -> exchange -> merge by key
//	scan t: 10/10 zones, 10000/10000 rows
//
// # Result contract
//
// What a SELECT promises about row order is stated once and held by
// the benchmark's oracle (bench/oracle.go), the wire and the tests,
// where the differential driver (engine/diff_test.go) holds every
// executor to it through one comparator, engine.Contract:
//
//   - Without ORDER BY a result is a MULTISET of rows. The order rows
//     arrive in is whatever the executing path produces — morsel
//     scheduling on the vector path, group first-seen order — and may
//     differ between runs, worker counts and engines (vector vs MAL).
//     Tests compare such results order-insensitively.
//   - ORDER BY fixes the sequence of SORT-KEY values, with LIMIT
//     cutting that sequence; which of several rows with equal sort
//     keys comes first is not promised by the contract. (The vector
//     path does fix it — ties break on table row order, DESC the exact
//     reverse — and a LIMIT, which selects its rows behind a running
//     cutoff instead of sorting all of them, returns the same rows in
//     the same tie order as the full sort cut short. Over join and
//     grouped output both engines additionally break ties by every
//     output column left to right — see the join-ordering chapter —
//     and the driver holds such a result to MAL's row for row, as it
//     does an ORDER BY on a column no item projects, over one table or
//     a join: MAL breaks those ties the same way.)
//
// # Durability
//
// A database opened with engine.WithDir is crash-safe. internal/wal
// keeps an append-only log of length-prefixed, CRC32-checksummed
// records with sequential LSNs; a committed statement is one
// begin/ops/commit transaction of physical effects (coerced values,
// physical positions), group-committed: the log fsyncs as soon as a
// commit arrives, commits that arrive during that fsync share the next
// one, and Exec returns only after the covering fsync. Recovery loads the last checkpoint — an atomic
// snapshot directory committed by renaming a CURRENT pointer — and
// replays exactly the transactions whose commit record survived
// intact, truncating the log at the first torn or corrupt record. The
// snapshot carries a wal_lsn watermark (the highest commit LSN it
// contains), so the checkpoint's two durable steps — snapshot commit,
// then log truncation — tolerate a crash between them: transactions
// the snapshot already holds are skipped, never replayed twice, and
// LSN numbering resumes above the watermark. A failed fsync is never
// retried: the log poisons itself, writes fail, and the Close-time
// checkpoint is refused, keeping the on-disk state at the last point
// known durable; if the failure caught a statement already applied in
// memory, the database is tainted and refuses reads too (DB.Err).
// Columns are append-only and a DELETE only tombstones positions, in a
// sorted list every scan filters; a WAL-logged vacuum drops them — at
// a checkpoint, from DB.Vacuum, or inside the transaction of a DELETE
// or UPDATE that leaves more than half of a table's positions
// tombstoned, which bounds dead space by the data with no timer or
// option. The log writes through a small filesystem interface whose
// in-memory test double injects torn writes, short writes, fsync
// failures, and kill-at-any-byte crashes; engine/recovery_test.go
// sweeps every record boundary against an in-memory oracle.
//
// # Out-of-core execution
//
// engine.WithMemBudget places every query's working memory — sort
// buffers, grouping tables, join builds — under a per-query ledger
// (internal/memgov.Reservation) threaded through the physical
// operators. The engine is the budget's one owner — a statement is
// governed the same embedded and served — and it judges a statement by
// what it materializes, not by what its tables store: a point read or
// a DELETE over a table many times the budget runs. Denial is a
// policy: without a spill directory the query fails with the typed
// engine.ErrOverBudget (per-query, database untouched); with
// engine.WithSpill it degrades to disk and completes under the budget.
// A MAL-routed SELECT is outside the ledger and cannot spill, so
// without a spill directory it is refused with ErrOverBudget before it
// runs when the tables it reads store more than the budget. ORDER BY becomes an external sort — over-grant
// buffers spill as sorted runs (vector.SortRun), k-way merged with the
// in-memory runs by vector.MergeRuns, holding one vector-sized chunk
// per spilled run; an ORDER BY with a LIMIT buffers at most 2·LIMIT
// rows per worker and spills only when LIMIT rows alone outgrow the
// budget. Grouping and joins re-plan mid-query to grace hash
// (internal/physical/grace.go): inputs radix-partition into spill
// files by radix.PartitionOf — the top bits of the key hash multiplied
// once more: the tables built over a partition slot on the top bits of
// the hash itself, so routing on those would crowd each partition's
// keys into one corner of its table, and a fixed lower window would
// send keys that differ only in their high bits to one partition — and
// each partition's table is built and drained one at a time. A grace
// grouping writes each partition's groups to one spill file, so the
// grouping is over before a sort above it charges the budget. Spilled
// plans return the in-memory plans' rows (engine/diff_test.go runs
// its statements under a tight budget against a plain-Go reference
// across worker counts, race detector on). Spill files live in
// internal/spill — CRC-checked chunked runs under a per-query scope
// that dies with the query's cursor, swept at Open if a crash orphaned
// any — and all spill I/O goes through the same wal.FS seam as the
// log, so fault injection covers this layer: an injected spill failure
// fails only the owning query with engine.ErrSpillFailed and never
// taints the database. DB.SpillStats exposes the traffic.
//
// # NULL representation
//
// INT columns reserve the domain minimum (bat.NilInt), FLOAT columns
// the canonical NaN (bat.NilFloat) — stored by INSERT/UPDATE NULL,
// skipped by aggregates, never matched by comparisons (including <>),
// selected by IS [NOT] NULL, and rendered as SQL NULL by the engine
// API and shell.
//
// # Serving
//
// cmd/monetlited serves one database over a length-prefixed binary
// wire protocol (internal/server/wire: CRC-checked frames, version
// handshake, typed error codes — docs/PROTOCOL.md has the byte-level
// spec). The serving layer exists because the paper's architecture
// pays off across connections, not within one: every session is an
// engine.Conn onto the SAME engine, so prepared plans land in one
// shared plan cache (keyed by SQL text and schema version — a second
// connection preparing a hot statement gets the compiled MAL plan for
// free, observable via the Stats frame), and total query concurrency
// is bounded by one admission controller. Admission is two-level: at
// most Workers queries execute, at most QueueDepth more wait, and the
// excess is rejected immediately with a typed queue-full error rather
// than queueing without bound. Memory is not admission's business:
// monetlited's -budget and -spill-dir are the engine's WithMemBudget
// and WithSpill, and the session answers the engine's ErrOverBudget
// with a typed budget error, counted in the Stats frame's RejectedMem.
// A statement timeout (-stmt-timeout, or
// the session's SetTimeout override) cancels overlong statements at
// the next morsel boundary with a typed timeout error.
// repro/client is the Go client (Dial/Query/Prepare/Exec, streaming
// Rows, context cancellation forwarded as an out-of-band Cancel frame
// that stops the server-side scan at the next morsel boundary), and
// monetlite -connect is the same REPL speaking the wire protocol.
// A command's reply frames are coalesced and flushed at its
// terminator, or whenever the 16 KiB buffer fills while a result
// streams, and each request leaves the client in one write, so a
// served point query costs one syscall each way; frame boundaries
// never matched segments, and the bytes are unchanged.
// SIGTERM drains: the listener closes, in-flight commands finish,
// and the database closes — checkpointing a -d database — before the
// process exits.
//
// # Invariants and static checks
//
// The conventions the layers above rely on are machine-checked by a
// custom analyzer suite (internal/lint, driven by cmd/lintmonet),
// which CI runs over the whole repository as `go vet -vettool`:
//
//   - nilsentinel — float nil is the canonical NaN, so `x == x` tricks
//     and comparisons against bat.NilFloat()/math.NaN() are silently
//     wrong; they must spell bat.IsNilFloat, and raw
//     -9223372036854775808 / math.MinInt64 literals must spell
//     bat.NilInt (NULL representation, PRs 2–3).
//   - lockedcall — functions named *Locked document "caller holds the
//     owning mutex"; calling one without a lexical Lock() or a *Locked
//     enclosing function breaks the log-order-equals-apply-order
//     guarantee (durability, PR 6).
//   - walcheck — errors from fsync-bearing and checkpoint-owning calls
//     (AppendTx, WaitDurable, Sync, Close/Truncate/Checkpoint/Vacuum/
//     Save on WAL-owning types, os file mutations in the persistence
//     layer) must be checked, never discarded (durability, PR 6); the
//     same discipline covers the spill path (WriteBatch/Finish/Cleanup
//     on spill types, spill.Sweep), where a dropped error means wrong
//     query results or leaked disk (out-of-core, PR 9).
//   - hotpathmap — no Go maps or range-over-map in internal/radix,
//     internal/vector, internal/batalg: the open-addressing tables
//     replaced them for measured wins (joins PR 1, grouping PR 4).
//   - ctxmorsel — every vector.Exchange carries a Ctx so cancellation
//     reaches morsel boundaries (parallelism, PR 3).
//   - netcheck — in the server and client packages, connection
//     write/close/deadline errors, *bufio.Writer Write/WriteString/
//     Flush errors and wire.Send/WriteFrame/AppendFrame errors must be
//     checked (a dropped write desynchronizes the single-writer frame
//     stream, and a dropped Flush loses a whole buffered reply), and
//     every server goroutine launch passes a context.Context so SIGTERM
//     drain can reach it (serving).
//
// Run it locally with `go run ./cmd/lintmonet ./...` (or build once
// and use `go vet -vettool=`). Intentional violations carry a
// `//lint:ignore <analyzer> <justification>` comment; the
// justification is mandatory.
package repro
