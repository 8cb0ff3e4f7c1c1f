package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestExitCode(t *testing.T) {
	closeFailed := errors.New("close: disk full")
	for _, tc := range []struct {
		name             string
		runErr, closeErr error
		want             int
	}{
		{"finished", nil, nil, 0},
		{"interrupted", context.Canceled, nil, 0},
		{"interrupted, wrapped", fmt.Errorf("backfill: %w", context.Canceled), nil, 0},
		{"load failed", errors.New("not chronologically sorted"), nil, 1},
		{"finished, close failed", nil, closeFailed, 1},
		{"interrupted, close failed", context.Canceled, closeFailed, 1},
		{"load failed, close failed", errors.New("read: EIO"), closeFailed, 1},
	} {
		if got := exitCode(tc.runErr, tc.closeErr); got != tc.want {
			t.Errorf("%s: exitCode(%v, %v) = %d, want %d", tc.name, tc.runErr, tc.closeErr, got, tc.want)
		}
	}
}
