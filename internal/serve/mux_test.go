package serve

import (
	"testing"

	"xcache/internal/dram"
	"xcache/internal/mem"
	"xcache/internal/sim"
)

// TestMuxRoutesByShard: requests from distinct shard ports come back on
// the right port with the shard tag stripped, even when ids collide
// across shards.
func TestMuxRoutesByShard(t *testing.T) {
	k := sim.NewKernel()
	img := mem.NewImage()
	base := img.AllocWords(64)
	for i := 0; i < 64; i++ {
		img.W64(base+uint64(i)*8, uint64(1000+i))
	}
	d := dram.New(k, dram.DefaultConfig(), img)

	const shards = 3
	reqs := make([]*sim.Queue[dram.Request], shards)
	resps := make([]*sim.Queue[dram.Response], shards)
	for i := range reqs {
		reqs[i] = sim.NewQueue[dram.Request](k, "t.req", 8)
		resps[i] = sim.NewQueue[dram.Response](k, "t.resp", 8)
	}
	newDRAMMux(k, []*dram.DRAM{d}, PolicyInterleave, reqs, resps)

	// Same request id 7 on every shard, each reading a different word.
	for s := 0; s < shards; s++ {
		reqs[s].MustPush(dram.Request{ID: 7, Addr: base + uint64(s)*8, Words: 1})
	}
	got := map[int]dram.Response{}
	k.RunUntil(func() bool {
		for s := 0; s < shards; s++ {
			if r, ok := resps[s].Pop(); ok {
				if _, dup := got[s]; dup {
					t.Fatalf("shard %d answered twice", s)
				}
				got[s] = r
			}
		}
		return len(got) == shards
	}, 10_000)
	if len(got) != shards {
		t.Fatalf("only %d of %d responses arrived", len(got), shards)
	}
	for s, r := range got {
		if r.ID != 7 {
			t.Errorf("shard %d: id %d, want 7 (tag not stripped?)", s, r.ID)
		}
		if len(r.Data) != 1 || r.Data[0] != uint64(1000+s) {
			t.Errorf("shard %d: data %v, want [%d] — cross-shard routing", s, r.Data, 1000+s)
		}
	}
}

// TestMuxPreservesHighIDBits: the writeback flag (bit 63) survives the
// shard tagging round trip untouched.
func TestMuxTagBitsDisjoint(t *testing.T) {
	const wbFlag = uint64(1) << 63
	id := wbFlag | 0xdeadbeef
	tagged := id | uint64(5)<<muxShardShift
	if tagged&wbFlag == 0 {
		t.Fatal("tagging clobbered bit 63")
	}
	if got := int(tagged >> muxShardShift & muxShardMask); got != 5 {
		t.Fatalf("extracted shard %d, want 5", got)
	}
	if restored := tagged &^ (muxShardMask << muxShardShift); restored != id {
		t.Fatalf("restored id %#x, want %#x", restored, id)
	}
}

// TestMuxFairness: with both ports continuously loaded, neither shard
// starves: round-robin alternates service.
func TestMuxFairness(t *testing.T) {
	k := sim.NewKernel()
	img := mem.NewImage()
	base := img.AllocWords(8)
	d := dram.New(k, dram.DefaultConfig(), img)
	reqs := []*sim.Queue[dram.Request]{
		sim.NewQueue[dram.Request](k, "a.req", 64),
		sim.NewQueue[dram.Request](k, "b.req", 64),
	}
	resps := []*sim.Queue[dram.Response]{
		sim.NewQueue[dram.Response](k, "a.resp", 64),
		sim.NewQueue[dram.Response](k, "b.resp", 64),
	}
	newDRAMMux(k, []*dram.DRAM{d}, PolicyInterleave, reqs, resps)

	const n = 32
	for i := 0; i < n; i++ {
		reqs[0].MustPush(dram.Request{ID: uint64(i), Addr: base, Words: 1})
		reqs[1].MustPush(dram.Request{ID: uint64(i), Addr: base, Words: 1})
	}
	var gotA, gotB int
	k.RunUntil(func() bool {
		for {
			if _, ok := resps[0].Pop(); ok {
				gotA++
				continue
			}
			break
		}
		for {
			if _, ok := resps[1].Pop(); ok {
				gotB++
				continue
			}
			break
		}
		return gotA == n && gotB == n
	}, 100_000)
	if gotA != n || gotB != n {
		t.Fatalf("responses: a=%d b=%d, want %d each — a port starved", gotA, gotB, n)
	}
}
