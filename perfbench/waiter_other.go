//go:build !linux

package main

func (wallClock) newWaiter() waiter { return sleepWaiter{} }
