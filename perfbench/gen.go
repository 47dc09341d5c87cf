package main

import (
	"fmt"
	"math/rand"

	"objalloc/internal/model"
	"objalloc/internal/server"
	wgen "objalloc/internal/workload"
)

// req is one generated request: an object index, the operation and the
// issuing processor.
type req struct {
	obj   int32
	write bool
	proc  uint8
}

func (q req) model() model.Request {
	if q.write {
		return model.W(model.ProcessorID(q.proc))
	}
	return model.R(model.ProcessorID(q.proc))
}

func objectName(i int) string { return fmt.Sprintf("obj-%d", i) }

// clientRands are the two seeded sources of a client's stream: one for
// the operations and processors (drawn by internal/workload), one for
// the objects. Each draw of either depends only on the draws before
// it, so a shorter stream is a prefix of a longer one.
func clientRands(seed int64, client int) (ops, objs *rand.Rand) {
	base := seed * 4 * clients
	return rand.New(rand.NewSource(base + int64(2*client))), rand.New(rand.NewSource(base + int64(2*client+1)))
}

// ownedObject maps a draw in [0, objects/clients) to the client's own
// object: client c owns the objects whose index is c modulo clients, so
// no object is ever touched by two clients and its request order is
// fixed by the stream alone.
func ownedObject(draw, client int) int32 { return int32(draw*clients + client) }

// withObjects pairs each operation of sched with an object drawn
// uniformly from the client's share.
func withObjects(out []req, sched model.Schedule, objs *rand.Rand, client, share int) []req {
	for _, q := range sched {
		out = append(out, req{obj: ownedObject(objs.Intn(share), client), write: q.IsWrite(), proc: uint8(q.Processor)})
	}
	return out
}

// uniformStream is the wire workload's stream for one client: objects
// uniform over the client's share, processors uniform over all n,
// writes with probability pWrite.
func uniformStream(seed int64, client, length, objects int, pWrite float64) []req {
	ops, objs := clientRands(seed, client)
	return withObjects(make([]req, 0, length), wgen.Uniform(ops, procs, length, pWrite), objs, client, objects/clients)
}

// mixFlipStream is the adaptive workload's stream for one client: phases
// of phaseLen requests alternate between a read-heavy and a write-heavy
// mix (the given write probabilities), objects are uniform over the
// client's share and processors are zipf-skewed with exponent zipfS.
func mixFlipStream(seed int64, client, length, objects, phaseLen int, readHeavyWrites, writeHeavyWrites, zipfS float64) []req {
	ops, objs := clientRands(seed, client)
	out := make([]req, 0, length)
	for phase := 0; len(out) < length; phase++ {
		p := readHeavyWrites
		if phase%2 == 1 {
			p = writeHeavyWrites
		}
		sched := wgen.Zipf(ops, procs, min(phaseLen, length-len(out)), p, zipfS)
		out = withObjects(out, sched, objs, client, objects/clients)
	}
	return out
}

// wireBatches turns a client's stream into HTTP batches, numbering each
// object's requests from 1 so a journaling daemon can deduplicate.
func wireBatches(stream []req, size int) [][]server.WireRequest {
	seq := make(map[int32]uint64)
	var out [][]server.WireRequest
	for i := 0; i < len(stream); i += size {
		end := min(i+size, len(stream))
		b := make([]server.WireRequest, 0, end-i)
		for _, q := range stream[i:end] {
			seq[q.obj]++
			op := "r"
			if q.write {
				op = "w"
			}
			b = append(b, server.WireRequest{Object: objectName(int(q.obj)), Op: op, Processor: int(q.proc), Seq: seq[q.obj]})
		}
		out = append(out, b)
	}
	return out
}
