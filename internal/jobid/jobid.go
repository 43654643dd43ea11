// Package jobid is the shared job-identifier discipline of the service
// tiers: the single-node server (internal/service) and the distributed
// coordinator (internal/dist) mint and validate job IDs through
// one set of rules, so an ID accepted at one tier is accepted at every
// tier. An ID is 1–128 characters, starts with an alphanumeric, and
// continues with alphanumerics plus '.', '_' and '-' (never '/', which
// the job API routes on). Server-minted IDs are "j<seq>"; the
// coordinator derives shard IDs from the parent job's ID plus the shard
// coordinates and an idempotency hash, and those shard IDs satisfy the
// same grammar — which is what lets a coordinator submit them as
// X-Csim-Job-Id headers and lets the worker's 409-on-live-ID-reuse rule
// hold across tiers.
package jobid

import "fmt"

// MaxLen bounds a job ID's length.
const MaxLen = 128

// Valid reports whether id satisfies the job-ID grammar: 1–MaxLen
// chars, leading alphanumeric, then alphanumerics plus . _ -.
func Valid(id string) bool {
	if len(id) == 0 || len(id) > MaxLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if i == 0 {
			if !alnum {
				return false
			}
			continue
		}
		if !alnum && c != '.' && c != '_' && c != '-' {
			return false
		}
	}
	return true
}

// Sequential spells the server-minted ID for a sequence number: "j<seq>".
func Sequential(seq int64) string { return fmt.Sprintf("j%d", seq) }

// Shard mints the coordinator's ID for shard k of n of a parent job:
// "<parent>.s<k>of<n>.<hash>", where hash is the shard's idempotency
// key (a hex digest prefix). The result always satisfies Valid: when
// the parent's contribution would push past MaxLen, the parent is
// dropped and the globally unique hash alone carries the identity
// ("s<k>of<n>.<hash>"). Shard panics if the hash itself is empty or
// malformed — coordinator keys are code-derived, never user input.
func Shard(parent string, k, n int, hash string) string {
	if !Valid(hash) {
		panic(fmt.Sprintf("jobid: shard hash %q is not a valid ID fragment", hash))
	}
	suffix := fmt.Sprintf("s%dof%d.%s", k, n, hash)
	id := suffix
	if parent != "" && len(parent)+1+len(suffix) <= MaxLen {
		id = parent + "." + suffix
	}
	if !Valid(id) {
		// A malformed parent (it never passed Valid) falls back to the
		// self-contained spelling.
		return suffix
	}
	return id
}
