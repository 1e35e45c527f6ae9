package fleet

import "fmt"

// OpKind tags one replayable stream operation.
type OpKind uint8

const (
	// OpWord is a Push of W/N.
	OpWord OpKind = iota
	// OpFault is a PushFault of Err.
	OpFault
	// OpRun is a PushWords of Ws — a run of full 64-bit batches,
	// equivalent to one OpWord of 64 bits per element.
	OpRun
)

// Op is one recorded stream operation. A stream's full input is its op
// list in push order; replaying the list serially reproduces the stream's
// verdicts bit for bit.
type Op struct {
	Kind OpKind
	W    uint64
	N    int
	Ws   []uint64
	Err  error
}

// Apply plays the op against a live stream handle, returning the push's
// result.
func (op Op) Apply(s *Stream) error {
	switch op.Kind {
	case OpFault:
		return s.PushFault(op.Err)
	case OpRun:
		return s.PushWords(op.Ws)
	default:
		return s.Push(op.W, op.N)
	}
}

// ReplaySerial runs one stream's op list synchronously on the caller's
// goroutine, through the exact same shard-side code path a pooled stream
// runs — same ingest, same fault handling, same breaker, same report. It
// is the serial reference the chaos suite compares fleet output against:
// if the fleet sheds nothing, stream verdicts must be byte-identical to
// the replay. The configuration's shard/queue fields are ignored (there
// are no workers and no queues); policy, verification, breaker and report
// settings apply exactly as in a live pool.
func ReplaySerial(cfg Config, tenant string, ops []Op) (StreamReport, error) {
	cfg.Shards = 1
	p, err := newPool(cfg, false)
	if err != nil {
		return StreamReport{}, err
	}
	s, err := p.Register(tenant)
	if err != nil {
		return StreamReport{}, err
	}
	for _, op := range ops {
		switch op.Kind {
		case OpFault:
			if op.Err != nil {
				s.applyFault(op.Err)
			}
		case OpRun:
			for _, w := range op.Ws {
				s.offered.Add(1)
				s.ingestWord(w, 64)
			}
		default:
			if op.N < 1 || op.N > 64 {
				return StreamReport{}, fmt.Errorf("fleet: word size %d out of range [1,64]", op.N)
			}
			s.offered.Add(1)
			s.ingestWord(op.W, op.N)
		}
	}
	if s.mon != nil {
		s.detached.Store(true)
		s.finalize()
	}
	return s.final, nil
}
