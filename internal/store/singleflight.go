package store

import "context"

// Cross-job single-flight coalescing. When several concurrent callers miss
// on the same content-addressed key — the signature load of a duplicate-heavy
// job storm, where identical sweep specs race through the daemon before the
// first one has persisted its result — exactly one caller (the leader) runs
// the expensive computation while the rest block and share the leader's
// bytes. The payload a follower receives is the leader's exact encoding, the
// same bytes a later store hit would replay, so coalescing can change only
// wall-clock time, never any result: the "miss is never a wrong answer"
// contract of DESIGN.md §5f extends to in-flight misses (§5i).
//
// The flight table is keyed by the same SHA-256 key space as the blobs and
// shares the store mutex; compute runs with no lock held, so a slow leader
// never blocks unrelated store traffic.

// FlightOutcome reports how GetOrCompute obtained its payload.
type FlightOutcome int

const (
	// FlightComputed means this caller led: compute ran to completion on
	// this goroutine and the returned payload is its result.
	FlightComputed FlightOutcome = iota
	// FlightCoalesced means the payload was produced by a concurrent
	// computation of the same key — either shared by an in-flight leader
	// this caller waited on, or found already landed in the memory tier by
	// the time this caller tried to lead.
	FlightCoalesced
)

// flight is one in-progress computation. payload and err are written by the
// leader before done is closed and read by followers only after.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// GetOrCompute returns the payload for key, running compute at most once
// across all concurrent callers of the same key. Callers use it after an
// ordinary Get miss: the leader runs compute (which typically simulates,
// then Puts the encoded payload so the store tiers serve every later Get);
// concurrent callers of the same key block on the leader and share its
// bytes, counted in Stats.Coalesced. A leader's error is never inherited:
// a follower that waited out a failed flight retries from the top, leading
// itself if no newer flight exists, so one job's cancellation or fault
// cannot fail another job's cell. Waiting is cancellable through ctx.
//
// An invalid key coalesces with nothing and caches nothing: compute just
// runs (same contract as Get treating invalid keys as misses).
func (s *Store) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, FlightOutcome, error) {
	if !validKey(key) {
		payload, err := compute()
		return payload, FlightComputed, err
	}
	for {
		s.mu.Lock()
		// A racing leader may have finished between the caller's miss and
		// this call: its Put landed in the memory tier, so take those bytes
		// instead of recomputing. (Checked before leading, so the window
		// between a completed flight and a new caller never forks a second
		// computation.)
		if el := s.entries[key]; el != nil {
			if payload := el.Value.(*entry).payload; payload != nil {
				s.lru.MoveToFront(el)
				s.stats.Coalesced++
				s.mu.Unlock()
				return payload, FlightCoalesced, nil
			}
		}
		if f := s.flights[key]; f != nil {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, FlightCoalesced, ctx.Err()
			}
			if f.err == nil {
				s.mu.Lock()
				s.stats.Coalesced++
				s.mu.Unlock()
				return f.payload, FlightCoalesced, nil
			}
			continue // the leader failed; compute on our own behalf
		}
		f := &flight{done: make(chan struct{})}
		if s.flights == nil {
			s.flights = map[string]*flight{}
		}
		s.flights[key] = f
		s.mu.Unlock()

		f.payload, f.err = compute()

		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
		return f.payload, FlightComputed, f.err
	}
}

// Inflight reports the number of keys currently being computed (tests and
// introspection).
func (s *Store) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.flights)
}
