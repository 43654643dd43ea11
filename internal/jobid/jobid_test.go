package jobid

import (
	"strings"
	"testing"
)

func TestValid(t *testing.T) {
	cases := []struct {
		id   string
		want bool
	}{
		{"j1", true},
		{"j12345", true},
		{"ci-postmortem", true},
		{"a.b_c-d9", true},
		{"A", true},
		{"9x", true},
		{"", false},
		{"-leading", false},
		{".leading", false},
		{"has/slash", false},
		{"has space", false},
		{strings.Repeat("a", MaxLen), true},
		{strings.Repeat("a", MaxLen+1), false},
	}
	for _, c := range cases {
		if got := Valid(c.id); got != c.want {
			t.Errorf("Valid(%q) = %v, want %v", c.id, got, c.want)
		}
	}
}

func TestSequential(t *testing.T) {
	if got := Sequential(7); got != "j7" {
		t.Fatalf("Sequential(7) = %q, want j7", got)
	}
	if !Valid(Sequential(123456)) {
		t.Fatal("sequential IDs must satisfy Valid")
	}
}

func TestShard(t *testing.T) {
	id := Shard("j42", 3, 8, "deadbeef0123")
	if id != "j42.s3of8.deadbeef0123" {
		t.Fatalf("Shard = %q", id)
	}
	if !Valid(id) {
		t.Fatalf("shard ID %q must satisfy Valid", id)
	}

	// A parent near the length bound drops out rather than overflowing.
	long := strings.Repeat("p", MaxLen-5)
	id = Shard(long, 0, 2, "abc123")
	if strings.HasPrefix(id, long) {
		t.Fatalf("oversized parent should be dropped, got %q", id)
	}
	if id != "s0of2.abc123" {
		t.Fatalf("fallback spelling = %q", id)
	}
	if !Valid(id) {
		t.Fatalf("fallback shard ID %q must satisfy Valid", id)
	}

	// A malformed parent (never passed Valid) falls back too.
	if got := Shard("bad/parent", 1, 2, "abc"); got != "s1of2.abc" {
		t.Fatalf("malformed parent: got %q", got)
	}
}

func TestShardPanicsOnBadHash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shard with an empty hash must panic")
		}
	}()
	Shard("j1", 0, 1, "")
}
