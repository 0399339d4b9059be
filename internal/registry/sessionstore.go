package registry

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// DefaultMaxSessions bounds a SessionStore when the caller passes no
// limit. A live document session retains the parsed tree, the constraint
// indexes and the kids indexes of its wide parents — memory proportional
// to the document — so the default is far below the spec tiers'.
const DefaultMaxSessions = 64

// DefaultSessionTTL is the idle lifetime of a session when the caller
// passes none: a session untouched for this long is evicted by the
// background sweeper.
const DefaultSessionTTL = 15 * time.Minute

// SessionStats is a point-in-time snapshot of a SessionStore's counters.
type SessionStats struct {
	// Opens counts Put calls (sessions admitted).
	Opens uint64
	// Hits counts Get calls that found a live session.
	Hits uint64
	// Misses counts Get calls for unknown or already-evicted ids.
	Misses uint64
	// EvictionsLRU counts sessions dropped to keep the store within its
	// size bound.
	EvictionsLRU uint64
	// EvictionsTTL counts sessions dropped by the idle-lifetime sweeper.
	EvictionsTTL uint64
	// Closes counts sessions removed by Delete.
	Closes uint64
	// Size is the current number of live sessions.
	Size int
}

// sessionEntry is one stored session with its last-touch time.
type sessionEntry struct {
	id       string
	val      any
	lastUsed time.Time
}

// SessionStore is a concurrency-safe, size-bounded LRU of live document
// sessions with idle-TTL eviction: Get touches an entry, Put admits one
// (evicting the least recently used beyond the bound), and a background
// sweeper drops entries idle longer than the TTL. Values are opaque to
// the store (the serving layer keeps *xic.Session handles here without
// the registry importing the session engine). Close stops the sweeper and
// must be called when the store is discarded.
type SessionStore struct {
	mu    sync.Mutex
	max   int
	ttl   time.Duration
	order *list.List               // front = most recently used
	byID  map[string]*list.Element // session id → list element
	stats SessionStats

	now  func() time.Time // test hook; time.Now in production
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewSessionStore returns a running store bounded to max sessions with
// the given idle TTL; max < 1 means DefaultMaxSessions, ttl <= 0 means
// DefaultSessionTTL. The background sweeper wakes a few times per TTL;
// stop it with Close.
func NewSessionStore(max int, ttl time.Duration) *SessionStore {
	if max < 1 {
		max = DefaultMaxSessions
	}
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	st := &SessionStore{
		max:   max,
		ttl:   ttl,
		order: list.New(),
		byID:  make(map[string]*list.Element),
		now:   time.Now,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	interval := ttl / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(st.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-st.stop:
				return
			case <-t.C:
				st.Sweep()
			}
		}
	}()
	return st
}

// Close stops the background sweeper and waits for it to exit. The store
// stays usable (Get/Put/Delete) but idle sessions are no longer swept;
// Close is idempotent.
func (st *SessionStore) Close() {
	st.once.Do(func() {
		close(st.stop)
	})
	<-st.done
}

// Put admits a session under id, evicting least-recently-used entries
// beyond the size bound. It returns the ids it evicted so the caller can
// release any per-session resources.
func (st *SessionStore) Put(id string, v any) (evicted []string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.byID[id]; ok { // overwrite: refresh in place
		el.Value.(*sessionEntry).val = v
		el.Value.(*sessionEntry).lastUsed = st.now()
		st.order.MoveToFront(el)
		return nil
	}
	st.byID[id] = st.order.PushFront(&sessionEntry{id: id, val: v, lastUsed: st.now()})
	st.stats.Opens++
	for st.order.Len() > st.max {
		back := st.order.Back()
		e := back.Value.(*sessionEntry)
		st.removeLocked(back)
		st.stats.EvictionsLRU++
		evicted = append(evicted, e.id)
	}
	return evicted
}

// Get returns the session under id, marking it most recently used.
func (st *SessionStore) Get(id string) (any, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		st.stats.Misses++
		return nil, false
	}
	e := el.Value.(*sessionEntry)
	e.lastUsed = st.now()
	st.order.MoveToFront(el)
	st.stats.Hits++
	return e.val, true
}

// Delete removes the session under id, reporting whether it was present.
func (st *SessionStore) Delete(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.byID[id]
	if !ok {
		return false
	}
	st.removeLocked(el)
	st.stats.Closes++
	return true
}

// Sweep drops every session idle longer than the TTL and returns how many
// it dropped. The background goroutine calls it periodically; tests may
// call it directly.
func (st *SessionStore) Sweep() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	cutoff := st.now().Add(-st.ttl)
	dropped := 0
	for el := st.order.Back(); el != nil; {
		e := el.Value.(*sessionEntry)
		if e.lastUsed.After(cutoff) {
			break // the list is LRU-ordered: everything further front is fresher
		}
		prev := el.Prev()
		st.removeLocked(el)
		st.stats.EvictionsTTL++
		dropped++
		el = prev
	}
	return dropped
}

// Len returns the number of live sessions.
func (st *SessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}

// SessionStatsSnapshot returns the current counters.
func (st *SessionStore) SessionStatsSnapshot() SessionStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	s := st.stats
	s.Size = st.order.Len()
	return s
}

func (st *SessionStore) removeLocked(el *list.Element) {
	e := el.Value.(*sessionEntry)
	st.order.Remove(el)
	delete(st.byID, e.id)
}

// NewSessionID returns a 128-bit random hex session handle.
func NewSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("registry: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
