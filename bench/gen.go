package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/service"
)

// The common shape of every workload. The client count is fixed, not scaled
// with the machine: the sizing runs were made with 2 clients on 2 vCPUs, and
// a client count that moves with nproc would make numbers from two machines
// differ in load as well as in speed.
const (
	numKeys      = 1 << 18 // 4× the auditor's default 65,536-key table, so audit drops are exercised
	numClients   = 2
	preloadBatch = 512 // ops per set-up put/get batch
	batchOps     = 256 // Shards × MaxBatch: one full grant window per shard per call
	zipfS        = 1.2 // loadgen's default skew
	getPct       = 60  // loadgen's default mix: 60 % get,
	putPct       = 30  // 30 % put, the rest cas

	keyLen      = 7  // "k%06d"
	valLen      = 24 // shortest value variant
	numVariants = 4  // values are rowLen-numVariants+1 .. rowLen bytes of the key's row
	rowLen      = valLen + numVariants - 1
)

// workload is one rung of the serving ladder: which stack the clients call
// into, how many ops one call carries, and how keys are drawn.
type workload struct {
	name  string
	root  layer // the layer the clients call into, with everything below it
	batch int   // ops per call; 1 calls Do, more calls DoBatch
	zipf  bool  // Zipf(zipfS) keys (hot keys fit the audit table) instead of uniform
}

// workloads is the ladder, top rung first. The batch pair and the single
// pair use the cluster layer in opposite ways, so a windowing gain bought on
// one shows its latency cost on the other.
var workloads = []workload{
	{name: "store-batch", root: layerService, batch: batchOps},
	{name: "wire-single", root: layerWire, batch: 1, zipf: true},
	{name: "cluster-batch", root: layerCluster, batch: batchOps},
	{name: "cluster-single", root: layerCluster, batch: 1, zipf: true},
}

func workloadIndex(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

// tables holds every key and value the generators hand out, so that drawing
// an op allocates nothing. Row i is "k%06d=" plus hex filler; the key is its
// first keyLen bytes and the value variants are its prefixes of valLen..rowLen
// bytes, so every value starts with its key — which is what the correctness
// gate checks on reads.
type tables struct{ rows []string }

func newTables() *tables {
	var b strings.Builder
	b.Grow(numKeys * rowLen)
	for i := 0; i < numKeys; i++ {
		fmt.Fprintf(&b, "k%06d=%0*x", i, rowLen-keyLen-1, splitmix64(uint64(i)))
	}
	all := b.String()
	t := &tables{rows: make([]string, numKeys)}
	for i := range t.rows {
		t.rows[i] = all[i*rowLen : (i+1)*rowLen]
	}
	return t
}

func (t *tables) key(i int) string          { return t.rows[i][:keyLen] }
func (t *tables) val(i, variant int) string { return t.rows[i][:valLen+variant] }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gen is one client's op stream: a pure function of (seed, workload index,
// client index). The system under test sees only the ops it produces.
type gen struct {
	t    *tables
	rng  *rand.Rand
	zipf *rand.Zipf // nil draws keys uniformly
	id   uint64     // next Op.ID: unique, non-zero, client index in the top byte
}

func newGen(t *tables, seed int64, widx, client int) *gen {
	stream := splitmix64(splitmix64(uint64(seed)) + uint64(widx)<<16 + uint64(client))
	g := &gen{
		t:   t,
		rng: rand.New(rand.NewSource(int64(stream))),
		id:  uint64(client+1)<<56 + 1,
	}
	if workloads[widx].zipf {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, numKeys-1)
	}
	return g
}

// newGens returns every client's generator for one run of workload widx.
func newGens(t *tables, seed int64, widx int) []*gen {
	gens := make([]*gen, numClients)
	for c := range gens {
		gens[c] = newGen(t, seed, widx, c)
	}
	return gens
}

// fill overwrites ops with the next len(ops) ops of the stream.
func (g *gen) fill(ops []service.Op) {
	for i := range ops {
		var k int
		if g.zipf != nil {
			k = int(g.zipf.Uint64())
		} else {
			k = g.rng.Intn(numKeys)
		}
		op := service.Op{Key: g.t.key(k), ID: g.id}
		g.id++
		switch p := g.rng.Intn(100); {
		case p < getPct:
			op.Kind = service.OpGet
		case p < getPct+putPct:
			op.Kind = service.OpPut
			op.Val = g.t.val(k, g.rng.Intn(numVariants))
		default:
			op.Kind = service.OpCAS
			op.Old = g.t.val(k, g.rng.Intn(numVariants))
			op.Val = g.t.val(k, g.rng.Intn(numVariants))
		}
		ops[i] = op
	}
}

// verified reports whether res is a correct answer to op on a keyspace that
// was fully preloaded and only ever holds values prefixed by their key: a
// get finds such a value, a put succeeds, and a cas either swaps or returns
// the current value it lost to.
func verified(op service.Op, res service.Result) bool {
	switch op.Kind {
	case service.OpGet:
		return res.OK && strings.HasPrefix(res.Val, op.Key)
	case service.OpPut:
		return res.OK
	default:
		return res.OK || strings.HasPrefix(res.Val, op.Key)
	}
}
