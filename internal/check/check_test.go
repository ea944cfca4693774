package check

import (
	"strings"
	"testing"
)

func TestPartition(t *testing.T) {
	if err := Partition("p", []int{0, 2, 2, 5}, 5); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
	cases := []struct {
		ptr   []int
		total int
		want  string
	}{
		{[]int{}, 0, "empty"},
		{[]int{1, 2}, 2, "want 0"},
		{[]int{0, 3, 2}, 2, "not monotone"},
		{[]int{0, 2, 4}, 5, "want 5"},
	}
	for _, c := range cases {
		err := Partition("p", c.ptr, c.total)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Partition(%v, %d) = %v, want error containing %q", c.ptr, c.total, err, c.want)
		}
	}
}

func TestStrictlyIncreasingInBounds(t *testing.T) {
	if err := StrictlyIncreasingInBounds("x", []int{1, 3, 7}, 0, 8); err != nil {
		t.Errorf("valid segment rejected: %v", err)
	}
	if err := StrictlyIncreasingInBounds("x", []int{1, 1, 2}, 0, 8); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := StrictlyIncreasingInBounds("x", []int{3, 2}, 0, 8); err == nil {
		t.Error("unsorted segment accepted")
	}
	if err := StrictlyIncreasingInBounds("x", []int{8}, 0, 8); err == nil {
		t.Error("out-of-bounds index accepted")
	}
}

func TestMust(t *testing.T) {
	Must(nil) // must not panic
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "gespcheck:") {
			t.Errorf("Must(err) panic = %v, want gespcheck prefix", r)
		}
	}()
	Must(Partition("p", []int{1}, 1))
}
