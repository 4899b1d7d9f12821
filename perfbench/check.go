package main

import (
	"crypto/sha256"
	"fmt"
	"sync"
)

// checker compares result bytes by digest: the first digest recorded for
// a key is the reference (a direct service.Run, or the first run of a
// campaign), and every later observation must equal it. Every
// observation counts as attempted; every mismatch or missing reference
// counts as failed. It is safe for concurrent use.
type checker struct {
	mu        sync.Mutex
	want      map[string][32]byte
	attempted int
	failed    int
	notes     []string
}

func newChecker() *checker { return &checker{want: map[string][32]byte{}} }

// reference records the expected bytes for key.
func (c *checker) reference(key string, data []byte) {
	c.mu.Lock()
	c.want[key] = sha256.Sum256(data)
	c.mu.Unlock()
}

// observe counts one result: it must equal key's reference. With
// adopt set, a key without a reference takes data as its reference
// (and the observation passes).
func (c *checker) observe(key string, data []byte, adopt bool) bool {
	return c.observeDigest(key, sha256.Sum256(data), adopt)
}

func (c *checker) observeDigest(key string, got [32]byte, adopt bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	want, ok := c.want[key]
	switch {
	case !ok && adopt:
		c.want[key] = got
		return true
	case !ok:
		c.fail("%s: no reference result", key)
		return false
	case want != got:
		c.fail("%s: result bytes differ from the reference", key)
		return false
	}
	return true
}

// check counts one boolean check (a sanity condition or an expected
// outcome).
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
	return ok
}

// fail records a failure; c.mu must be held.
func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checker) counts() (attempted, failed int, notes []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed, append([]string(nil), c.notes...)
}
