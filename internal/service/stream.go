package service

// Chunked binary ingest: the server half of the distcolor stream protocol
// (codecstream.go, DESIGN.md §11). A buffered submission buys its whole
// admission charge in one decision, which caps any single job at
// MaxInflightBytes. A streamed submission instead charges per edge chunk as
// it reads, so the bound protects the server's memory at every instant
// while the stream's own total may exceed it — the graph limits
// (MaxVertices/MaxEdges) stay the per-job size authority.

import (
	"errors"
	"fmt"

	distcolor "repro"
)

// SubmitStream admits and submits a chunked binary request stream. rr must
// have returned a chunked header from Begin, and skel is that header's
// request skeleton (no edges yet). The base charge — everything but the
// edges — is admitted up front along with the queue reservation; each edge
// chunk is then charged before the next is read. A chunk that does not fit
// sheds the whole stream with *OverloadError (HTTP 429), returning every
// byte charged so far; a malformed stream is a rejection (HTTP 400).
func (s *Server) SubmitStream(rr *distcolor.RequestReader, skel *distcolor.Request) (JobStatus, error) {
	if !rr.Chunked() {
		s.countRejected()
		return JobStatus{}, errors.New("service: SubmitStream needs a chunked request stream")
	}
	declared := rr.Declared()
	// Size limits are checked from the header, before any admission charge
	// or edge bytes: an oversized stream costs the server one frame.
	if s.cfg.MaxVertices > 0 && skel.Graph.N > s.cfg.MaxVertices {
		s.countRejected()
		return JobStatus{}, fmt.Errorf("service: graph has %d vertices, limit %d", skel.Graph.N, s.cfg.MaxVertices)
	}
	if s.cfg.MaxEdges > 0 && declared > s.cfg.MaxEdges {
		s.countRejected()
		return JobStatus{}, fmt.Errorf("service: stream declares %d edges, limit %d", declared, s.cfg.MaxEdges)
	}

	// The stream's job owns the charge from here on; every way the stream
	// ends early returns it through finish.
	j := s.newJob(skel)
	j.streamed = true
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, ErrClosed
	}
	err := s.admitLocked(j, jobCostSansEdges(skel))
	s.mu.Unlock()
	if err != nil {
		var ov *OverloadError
		if errors.As(err, &ov) {
			s.log.Warn("stream shed at header", "reason", ov.Reason, "retry_after", ov.RetryAfter)
		}
		return JobStatus{}, err
	}

	edges := skel.Graph.Edges[:0]
	if declared > 0 && len(edges) == 0 {
		edges = make([][2]int, 0, declared)
	}
	for {
		chunk, done, err := rr.ReadChunk()
		if err != nil {
			_ = s.finish(j, outcome{state: StateFailed, err: err.Error()})
			s.countRejected()
			return JobStatus{}, err
		}
		if done {
			break
		}
		s.mu.Lock()
		err = s.admitLocked(j, int64(len(chunk))*jobCostPerEdge)
		s.mu.Unlock()
		if err != nil {
			_ = s.finish(j, outcome{state: StateFailed, err: err.Error()})
			var ov *OverloadError
			if errors.As(err, &ov) {
				s.log.Warn("stream shed mid-ingest", "reason", ov.Reason,
					"edges_read", len(edges), "declared", declared, "retry_after", ov.RetryAfter)
			}
			return JobStatus{}, err
		}
		edges = append(edges, chunk...)
	}
	skel.Graph.Edges = edges

	// The stream's accumulated charge equals jobCost(skel) by construction
	// (base + declared*jobCostPerEdge, and the reader enforced the tally),
	// so the job carries exactly what a buffered admission would have.
	return s.submit(j)
}
