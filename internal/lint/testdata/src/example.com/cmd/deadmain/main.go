// Command deadmain is the second package that uses dead.UsedElsewhere.
package main

import "example.com/internal/dead"

func main() { println(dead.UsedElsewhere()) }
